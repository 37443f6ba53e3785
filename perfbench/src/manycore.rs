//! `mesh16` and `fault_storm`: the many-core coordinator
//! (`ManyCoreRtm`) on a clean 16-cluster mesh, and hardened on a
//! 2-cluster chip under the standard fault schedule.
//!
//! `mesh16` is where the demand split, the chip barrier, migration
//! and 16 agents dominate an epoch; it runs without monitors, so a
//! monitor-layer change should not move it. `fault_storm` is the only
//! workload on which the fault injector, the plausibility filter,
//! quarantine and the dead-cluster drain do work; it runs many seeds
//! at a moderate horizon so the fault windows stay a fixed share of
//! the epochs.

use crate::glue::{apply_decision, faulted_decision, to_work_slices_into};
use crate::trace::{Layer, LayerTotals, TimedApp, TimedManyCore, Tracer};
use crate::{
    elapsed_ns, instance_seed, report_fingerprint, same_bits, Checks, Decorated, Pass, SimTotals,
    TracedPass,
};
use qgov_bench::harness::precharacterize;
use qgov_bench::hetero::mesh_app;
use qgov_bench::manycore::{run_manycore_experiment, run_manycore_experiment_faulted_monitored};
use qgov_bench::{
    fault_storm_app, fault_storm_drop_epoch, standard_fault_schedule, FAULTSTORM_GRACE,
};
use qgov_core::{HardeningConfig, ManyCoreRtm};
use qgov_governors::{GovernorContext, ManyCoreGovernor, ManyCoreObservation, VfDecision};
use qgov_metrics::{recovery_pack, MonitorSample, PackConfig, PropertySet, RunReport};
use qgov_sim::{
    FaultInjector, FaultPlan, ManyCoreFrameResult, ManyCorePlatform, PlatformConfig, Topology,
    WorkSlice,
};
use qgov_units::{Cycles, Energy, SimTime, Temp};
use qgov_workloads::{split_demand_into, Application, FrameDemand, WorkloadTrace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One many-core workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    name: &'static str,
    clusters: usize,
    /// Workload instances (seeds) per pass.
    instances: usize,
    frames: u64,
    /// Hardened coordinator, standard fault schedule and recovery
    /// monitors (the fault storm), or the clean, unmonitored loop.
    faulted: bool,
}

/// 16 A15 quads at ~40 % utilisation; 4 seeds already agree closely
/// on the miss rate.
pub const MESH16: Spec = Spec {
    name: "mesh16",
    clusters: 16,
    instances: 4,
    frames: 1_500,
    faulted: false,
};

/// The fault-storm chip; its miss rate varies widely between seeds,
/// so a pass averages many of them.
pub const FAULT_STORM: Spec = Spec {
    name: "fault_storm",
    clusters: 2,
    instances: 96,
    frames: 600,
    faulted: true,
};

impl Spec {
    fn topology(&self) -> Topology {
        Topology::homogeneous_mesh(self.clusters, PlatformConfig::odroid_xu3_a15())
    }

    fn initial_shares(&self) -> Vec<f64> {
        vec![1.0 / self.clusters as f64; self.clusters]
    }

    fn plan(&self) -> FaultPlan {
        if self.faulted {
            standard_fault_schedule(self.frames)
        } else {
            FaultPlan::none()
        }
    }
}

struct Instance {
    seed: u64,
    trace: WorkloadTrace,
    bounds: (f64, f64),
}

/// One cell ready to run.
struct Armed {
    seed: u64,
    gov: ManyCoreRtm,
    replay: WorkloadTrace,
    monitors: Option<PropertySet<MonitorSample>>,
}

/// The simulated outcome of one cell, compared bit for bit.
#[derive(Debug)]
struct Outcome {
    report: RunReport,
    clusters: Vec<RunReport>,
    shares: Vec<f64>,
}

pub struct ManyCore {
    spec: Spec,
    plan: FaultPlan,
    instances: Vec<Instance>,
    armed: Vec<Armed>,
    precharacterize_s: f64,
    reference: Option<Vec<Outcome>>,
}

impl ManyCore {
    pub fn setup(spec: Spec, seed: u64) -> ManyCore {
        let mut precharacterize_s = 0.0;
        let instances = (0..spec.instances)
            .map(|i| {
                let seed = instance_seed(seed, i);
                let mut app = if spec.faulted {
                    fault_storm_app(seed, spec.frames)
                } else {
                    mesh_app(spec.clusters, seed, spec.frames)
                };
                let start = Instant::now();
                let (trace, bounds) = precharacterize(&mut app);
                precharacterize_s += start.elapsed().as_secs_f64();
                Instance {
                    seed,
                    trace,
                    bounds,
                }
            })
            .collect();
        let mut workload = ManyCore {
            spec,
            plan: spec.plan(),
            instances,
            armed: Vec::new(),
            precharacterize_s,
            reference: None,
        };
        workload.armed = workload.arm();
        workload
    }

    fn arm(&self) -> Vec<Armed> {
        let spec = self.spec;
        self.instances
            .iter()
            .map(|inst| {
                let gov = ManyCoreRtm::paper(inst.seed, spec.clusters, inst.bounds)
                    .expect("paper config is valid");
                Armed {
                    seed: inst.seed,
                    gov: if spec.faulted {
                        gov.with_agent_hardening(HardeningConfig::paper())
                    } else {
                        gov
                    },
                    replay: inst.trace.clone(),
                    monitors: spec.faulted.then(|| {
                        recovery_pack(
                            fault_storm_drop_epoch(spec.frames),
                            FAULTSTORM_GRACE,
                            &PackConfig::paper(),
                        )
                    }),
                }
            })
            .collect()
    }

    /// Runs one cell through the real harness.
    fn run_harness(
        &self,
        gov: &mut dyn ManyCoreGovernor,
        app: &mut dyn Application,
        monitors: Option<&mut PropertySet<MonitorSample>>,
        fault_seed: u64,
    ) -> Outcome {
        let spec = self.spec;
        let shares = spec.initial_shares();
        let outcome = match monitors {
            Some(monitors) => run_manycore_experiment_faulted_monitored(
                gov,
                app,
                spec.topology(),
                spec.frames,
                &shares,
                &self.plan,
                fault_seed,
                monitors,
            ),
            None => run_manycore_experiment(gov, app, spec.topology(), spec.frames, &shares),
        };
        Outcome {
            report: outcome.report,
            clusters: outcome.cluster_reports,
            shares: outcome.shares,
        }
    }

    fn reference(&self, cell: usize) -> Option<&Outcome> {
        self.reference.as_ref().and_then(|r| r.get(cell))
    }

    fn identity_check(&self, cell: usize, outcome: &Outcome, what: &str) -> Vec<String> {
        match self.reference(cell) {
            Some(reference) if same_bits(outcome, reference) => Vec::new(),
            _ => vec![format!("{what} differs from the untraced harness run")],
        }
    }
}

impl crate::Workload for ManyCore {
    fn describe(&self) -> String {
        let spec = self.spec;
        if spec.faulted {
            format!(
                "{} hardened ManyCoreRtm cells x {} frames on a {}-cluster A15 chip, \
                 standard fault schedule, recovery monitor pack",
                spec.instances, spec.frames, spec.clusters
            )
        } else {
            format!(
                "{} ManyCoreRtm cells x {} frames on a {}-cluster A15 mesh, uniform shares, no monitors",
                spec.instances, spec.frames, spec.clusters
            )
        }
    }

    fn precharacterize_s(&self) -> Option<f64> {
        Some(self.precharacterize_s)
    }

    fn pass(&mut self) -> Pass {
        let armed = std::mem::take(&mut self.armed);
        let mut timed = Vec::with_capacity(armed.len());
        let mut sim = SimTotals::default();
        let mut cells = Vec::with_capacity(armed.len());
        let mut outcomes = Vec::with_capacity(armed.len());
        for mut cell in armed {
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.run_harness(
                    &mut cell.gov,
                    &mut cell.replay,
                    cell.monitors.as_mut(),
                    cell.seed,
                )
            }));
            let host_s = start.elapsed().as_secs_f64();
            match outcome {
                Ok(outcome) => {
                    timed.push((outcome.report.frames(), host_s));
                    sim.add_report(&outcome.report);
                    let shares = outcome.shares.iter().map(|s| s.to_bits());
                    cells.push(Some(crate::fnv(
                        std::iter::once(report_fingerprint(&outcome.report)).chain(shares),
                    )));
                    outcomes.push(outcome);
                }
                Err(_) => {
                    timed.push((0, host_s));
                    cells.push(None);
                }
            }
        }
        if self.reference.is_none() {
            self.reference = Some(outcomes);
        }
        self.armed = self.arm();
        Pass { timed, sim, cells }
    }

    fn check(&mut self, checks: &mut Checks) {
        for (i, outcome) in self.reference.iter().flatten().enumerate() {
            checks.cell(
                &format!("{} cell {i}", self.spec.name),
                accounting_failures(outcome),
            );
        }
    }

    fn traced_pass(&mut self, tracer: &Tracer, mut checks: Option<&mut Checks>) -> TracedPass {
        let spec = self.spec;
        let (mut frames, mut wall_ns) = (0u64, 0u64);
        let mut moves = MoveLog::default();
        let mut counts = Counts::default();
        for (i, mut cell) in self.arm().into_iter().enumerate() {
            moves.last = None;
            let start = Instant::now();
            let outcome = traced_cell(spec, &self.plan, &mut cell, tracer, &mut moves);
            wall_ns += elapsed_ns(start);
            frames += outcome.report.frames();
            counts.add(&cell.gov, &outcome.report, &self.plan, spec);
            if let Some(checks) = checks.as_deref_mut() {
                let failures = self.identity_check(i, &outcome, "benchmark-side loop");
                checks.cell(&format!("{} traced cell {i}", spec.name), failures);
            }
        }
        let cells = spec.instances as f64;
        let epochs = frames.max(1) as f64;
        let mut counters = vec![
            (
                "sim.opp_transitions_per_epoch",
                counts.transitions as f64 / epochs,
            ),
            (
                "core.migrations_per_epoch",
                counts.migrations as f64 / epochs,
            ),
            (
                "core.migration_reversal_ratio",
                moves.reversals as f64 / moves.moves.max(1) as f64,
            ),
            (
                "rl.exploration_ratio",
                counts.explorations as f64 / (epochs * spec.clusters as f64),
            ),
        ];
        if spec.faulted {
            counters.extend([
                ("fault.active_epochs", counts.fault_epochs as f64 / cells),
                ("core.degraded_epochs", counts.degraded as f64 / cells),
                ("core.safe_state_epochs", counts.safe_state as f64 / cells),
                (
                    "metrics.monitor_violations",
                    counts.violations as f64 / cells,
                ),
            ]);
        }
        TracedPass {
            frames,
            wall_ns,
            spans: tracer.drain(),
            counters,
        }
    }

    fn decorated(&mut self, tracer: &Tracer, checks: &mut Checks) -> Decorated {
        let mut totals = LayerTotals::default();
        let mut frames = 0;
        for (i, mut cell) in self.arm().into_iter().enumerate() {
            let outcome = {
                let mut gov = TimedManyCore::new(&mut cell.gov, tracer);
                let mut app = TimedApp::new(&mut cell.replay, tracer);
                self.run_harness(&mut gov, &mut app, cell.monitors.as_mut(), cell.seed)
            };
            totals.add(&tracer.drain());
            frames += outcome.report.frames();
            let mut failures = self.identity_check(i, &outcome, "decorated harness run");
            failures.extend(accounting_failures(&outcome));
            checks.cell(&format!("{} decorated cell {i}", self.spec.name), failures);
        }
        Decorated {
            counters: Vec::new(),
            notes: vec![totals.decorator_note(frames)],
        }
    }
}

/// Counters read off the coordinators and reports of one traced pass.
#[derive(Default)]
struct Counts {
    transitions: u64,
    migrations: u64,
    explorations: u64,
    degraded: u64,
    safe_state: u64,
    fault_epochs: u64,
    violations: usize,
}

impl Counts {
    fn add(&mut self, gov: &ManyCoreRtm, report: &RunReport, plan: &FaultPlan, spec: Spec) {
        self.transitions += report.transitions();
        self.migrations += gov.migrations();
        self.explorations += (0..gov.clusters())
            .map(|c| gov.agent(c).exploration_count())
            .sum::<u64>();
        self.degraded += gov.degraded_epochs();
        self.safe_state += gov.safe_state_epochs();
        self.fault_epochs += (0..report.frames())
            .filter(|&e| {
                plan.faults()
                    .iter()
                    .any(|f| (0..spec.clusters).any(|c| f.active_at(e, c)))
            })
            .count() as u64;
        self.violations += report
            .monitor_report()
            .map_or(0, qgov_metrics::MonitorReport::violation_count);
    }
}

/// Share moves seen between consecutive epochs of one cell. A move
/// between exactly two clusters that swaps the previous move's donor
/// and receiver undoes it.
#[derive(Default)]
struct MoveLog {
    moves: u64,
    reversals: u64,
    last: Option<(usize, usize)>,
}

impl MoveLog {
    fn observe(&mut self, before: &[f64], after: &[f64]) {
        let (mut changed, mut donor, mut receiver) = (0, None, None);
        for (c, (b, a)) in before.iter().zip(after).enumerate() {
            if a.to_bits() != b.to_bits() {
                changed += 1;
                if a < b {
                    donor = Some(c);
                } else {
                    receiver = Some(c);
                }
            }
        }
        if changed == 0 {
            return;
        }
        self.moves += 1;
        let this = match (changed, donor, receiver) {
            (2, Some(d), Some(r)) => Some((d, r)),
            _ => None,
        };
        if let (Some((d, r)), Some((last_d, last_r))) = (this, self.last) {
            if d == last_r && r == last_d {
                self.reversals += 1;
            }
        }
        self.last = this;
    }
}

/// The simulator's chip accounting checked against itself: per epoch,
/// chip energy is the sum of the cluster energies in cluster order and
/// chip frame time the slowest cluster's; over the run, the chip's
/// energy totals are the same sums.
fn accounting_failures(outcome: &Outcome) -> Vec<String> {
    let mut failures = Vec::new();
    let mut frame_sum = Energy::ZERO;
    for (e, chip) in outcome.report.frame_stats().iter().enumerate() {
        let energy = outcome
            .clusters
            .iter()
            .fold(Energy::ZERO, |acc, r| acc + r.frame_stats()[e].energy);
        let slowest = outcome
            .clusters
            .iter()
            .map(|r| r.frame_stats()[e].frame_time)
            .fold(SimTime::ZERO, SimTime::max);
        frame_sum += energy;
        if chip.energy.as_joules().to_bits() != energy.as_joules().to_bits() {
            failures.push(format!(
                "epoch {e}: chip energy {} J != cluster sum {} J",
                chip.energy.as_joules(),
                energy.as_joules()
            ));
        }
        if chip.frame_time != slowest {
            failures.push(format!(
                "epoch {e}: chip frame time {:?} != slowest cluster {:?}",
                chip.frame_time, slowest
            ));
        }
        if failures.len() >= 4 {
            return failures;
        }
    }
    if outcome.report.total_energy().as_joules().to_bits() != frame_sum.as_joules().to_bits() {
        failures.push("chip run energy != sum over epochs of the cluster energies".into());
    }
    let measured = outcome
        .clusters
        .iter()
        .fold(Energy::ZERO, |acc, r| acc + r.measured_energy());
    if outcome.report.measured_energy().as_joules().to_bits() != measured.as_joules().to_bits() {
        failures.push("chip measured energy != sum of the cluster totals".into());
    }
    failures
}

/// The many-core harness's epoch loop (the faulted form when the
/// spec is faulted, the clean one otherwise), stepped here so every
/// layer call it makes gets a span.
fn traced_cell(
    spec: Spec,
    plan: &FaultPlan,
    cell: &mut Armed,
    tracer: &Tracer,
    moves: &mut MoveLog,
) -> Outcome {
    let mut coordinator = TimedManyCore::new(&mut cell.gov, tracer);
    let mut app = TimedApp::new(&mut cell.replay, tracer);
    let mut monitors = cell.monitors.as_mut();

    let mut chip = ManyCorePlatform::new(spec.topology()).expect("valid topology");
    let n = chip.cluster_count();
    let period = app.period();
    let cores: Vec<usize> = (0..n).map(|c| chip.cores(c)).collect();
    let ctxs: Vec<GovernorContext> = (0..n)
        .map(|c| GovernorContext::new(chip.opp_table(c).clone(), cores[c], period))
        .collect();
    let mut injector = spec
        .faulted
        .then(|| FaultInjector::new(plan, cell.seed, &cores));
    let mut notified = vec![false; n];

    app.reset();
    let mut decisions: Vec<VfDecision> = Vec::with_capacity(n);
    coordinator.init(&ctxs, &mut decisions);
    for (c, decision) in decisions.iter().enumerate() {
        apply_decision(chip.cluster_mut(c), decision).expect("initial decision in range");
    }
    let total = spec.frames.min(app.frames());
    let mut report = RunReport::new(coordinator.name(), app.name(), period);
    report.reserve_frames(usize::try_from(total).unwrap_or(usize::MAX));
    let mut cluster_reports: Vec<RunReport> = (0..n)
        .map(|c| {
            let mut r = RunReport::new(coordinator.name(), chip.cluster_name(c), period);
            r.reserve_frames(usize::try_from(total).unwrap_or(usize::MAX));
            r
        })
        .collect();

    let mut shares = spec.initial_shares();
    let mut before = shares.clone();
    let mut demand = FrameDemand::default();
    let mut cluster_demands = vec![FrameDemand::default(); n];
    let mut work: Vec<Vec<WorkSlice>> = cores.iter().map(|&k| vec![WorkSlice::IDLE; k]).collect();
    let mut frame = ManyCoreFrameResult::empty();
    let mut sensed = ManyCoreFrameResult::empty();
    let mut lost = vec![Cycles::ZERO; n];

    for epoch in 0..total {
        tracer.set_epoch(epoch);
        before.copy_from_slice(&shares);
        tracer.span(Layer::Epoch, || {
            if let Some(injector) = injector.as_mut() {
                tracer.span(Layer::FaultBegin, || {
                    injector.begin_epoch(epoch);
                    for (c, seen) in notified.iter_mut().enumerate() {
                        if !*seen && injector.cluster_dead(c) {
                            *seen = true;
                            coordinator.notify_cluster_dead(c);
                        }
                    }
                });
            }
            app.next_frame_into(&mut demand);
            tracer.span(Layer::Split, || {
                split_demand_into(&demand, &shares, &cores, &mut cluster_demands);
            });
            for (slices, slice_demand) in work.iter_mut().zip(&cluster_demands) {
                to_work_slices_into(slice_demand, slices);
            }
            if let Some(injector) = injector.as_ref() {
                tracer.span(Layer::Redistribute, || {
                    for (c, slices) in work.iter_mut().enumerate() {
                        lost[c] = injector.redistribute_dead(c, slices);
                    }
                });
            }
            tracer.span(Layer::RunFrame, || {
                chip.run_frame_into(&work, period, &mut frame)
                    .expect("work buffers sized to the topology");
            });
            let chip_met = frame.met_deadline() && lost.iter().all(|l| l.is_zero());
            tracer.span(Layer::Record, || {
                report.record_frame(
                    frame.frame_time,
                    frame.wall_time,
                    frame.energy,
                    frame.clusters[0].cluster_opp,
                    chip_met,
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
            });
            let observed = match injector.as_ref() {
                Some(injector) => {
                    tracer.span(Layer::Sense, || {
                        sensed.copy_from(&frame);
                        for (c, cluster_frame) in sensed.clusters.iter_mut().enumerate() {
                            injector.perturb_sensing(epoch, c, cluster_frame);
                        }
                    });
                    &sensed
                }
                None => &frame,
            };
            coordinator.decide_into(
                &ManyCoreObservation {
                    frames: &observed.clusters,
                    epoch,
                },
                &mut decisions,
                &mut shares,
            );
            assert_eq!(decisions.len(), n, "one decision per cluster");
            if let Some(monitors) = monitors.as_deref_mut() {
                tracer.span(Layer::Monitor, || {
                    let peak = frame
                        .clusters
                        .iter()
                        .map(|f| f.temperature)
                        .fold(frame.clusters[0].temperature, Temp::max);
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
                });
            }
            if let Some(injector) = injector.as_mut() {
                // Actuation faults are per cluster and independent of
                // the other clusters' decisions, so rewriting them all
                // before applying any matches the harness's order.
                tracer.span(Layer::FaultActuate, || {
                    for (c, decision) in decisions.iter_mut().enumerate() {
                        let requested = std::mem::replace(decision, VfDecision::NoChange);
                        *decision =
                            faulted_decision(injector, epoch, c, chip.current_opp(c), requested);
                    }
                });
            }
            tracer.span(Layer::Actuate, || {
                for (c, decision) in decisions.iter().enumerate() {
                    apply_decision(chip.cluster_mut(c), decision).expect("decision in range");
                    chip.add_overhead(c, coordinator.processing_overhead(c));
                }
            });
        });
        moves.observe(&before, &shares);
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
    Outcome {
        report,
        clusters: cluster_reports,
        shares,
    }
}
