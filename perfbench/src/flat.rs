//! `flat_paper`: the paper's own loop, the Table I RTM cell.
//!
//! `RtmConfig::paper` with precharacterised workload bounds replays
//! the H.264 football trace on one A15 quad with the standard monitor
//! pack attached. There is no demand split, migration or fault work
//! here, so a change to the many-core layers should not move it.

use crate::glue::{apply_decision, to_work_slices_into};
use crate::trace::{Layer, LayerTotals, TimedApp, TimedGovernor, Tracer};
use crate::{
    elapsed_ns, instance_seed, report_fingerprint, same_bits, Checks, Decorated, Pass, SimTotals,
    TracedPass,
};
use qgov_bench::harness::{precharacterize, run_experiment_monitored};
use qgov_core::{RtmConfig, RtmGovernor};
use qgov_governors::{EpochObservation, Governor, GovernorContext};
use qgov_metrics::{standard_pack, MonitorSample, PackConfig, PropertySet, RunReport};
use qgov_sim::{FrameResult, Platform, PlatformConfig, WorkSlice};
use qgov_workloads::{Application, FrameDemand, VideoDecoderModel, WorkloadTrace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Workload instances (seeds) per pass: enough that the mean miss
/// rate over them varies little from one benchmark seed to the next.
const INSTANCES: usize = 16;
/// Frames per instance: the Table I clip length.
const FRAMES: u64 = 3_000;

struct Instance {
    seed: u64,
    trace: WorkloadTrace,
    bounds: (f64, f64),
}

/// One cell ready to run: a fresh governor, replay and monitor set.
struct Armed {
    gov: RtmGovernor,
    replay: WorkloadTrace,
    monitors: PropertySet<MonitorSample>,
}

pub struct Flat {
    instances: Vec<Instance>,
    armed: Vec<Armed>,
    precharacterize_s: f64,
    /// The first pass's reports, the reference for the bit-identity
    /// checks of the traced run.
    reference: Option<Vec<RunReport>>,
}

fn platform() -> PlatformConfig {
    PlatformConfig::odroid_xu3_a15()
}

impl Flat {
    pub fn setup(seed: u64) -> Flat {
        let mut precharacterize_s = 0.0;
        let instances = (0..INSTANCES)
            .map(|i| {
                let seed = instance_seed(seed, i);
                let mut app = VideoDecoderModel::h264_football_15fps(seed).with_frames(FRAMES);
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
        let mut flat = Flat {
            instances,
            armed: Vec::new(),
            precharacterize_s,
            reference: None,
        };
        flat.armed = flat.arm();
        flat
    }

    fn arm(&self) -> Vec<Armed> {
        self.instances
            .iter()
            .map(|inst| Armed {
                gov: RtmGovernor::new(
                    RtmConfig::paper(inst.seed).with_workload_bounds(inst.bounds.0, inst.bounds.1),
                )
                .expect("paper config is valid"),
                replay: inst.trace.clone(),
                monitors: standard_pack("rtm", &PackConfig::paper()),
            })
            .collect()
    }

    fn reference(&self, cell: usize) -> Option<&RunReport> {
        self.reference.as_ref().and_then(|r| r.get(cell))
    }
}

impl crate::Workload for Flat {
    fn describe(&self) -> String {
        format!("{INSTANCES} RTM cells x {FRAMES} frames, H.264 football on one A15 quad, standard monitor pack")
    }

    fn precharacterize_s(&self) -> Option<f64> {
        Some(self.precharacterize_s)
    }

    fn pass(&mut self) -> Pass {
        let armed = std::mem::take(&mut self.armed);
        let mut timed = Vec::with_capacity(armed.len());
        let mut sim = SimTotals::default();
        let mut cells = Vec::with_capacity(armed.len());
        let mut reports = Vec::with_capacity(armed.len());
        for mut cell in armed {
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_experiment_monitored(
                    &mut cell.gov,
                    &mut cell.replay,
                    platform(),
                    FRAMES,
                    &mut cell.monitors,
                )
            }));
            let host_s = start.elapsed().as_secs_f64();
            match outcome {
                Ok(outcome) => {
                    timed.push((outcome.report.frames(), host_s));
                    sim.add_report(&outcome.report);
                    cells.push(Some(report_fingerprint(&outcome.report)));
                    reports.push(outcome.report);
                }
                Err(_) => {
                    timed.push((0, host_s));
                    cells.push(None);
                }
            }
        }
        if self.reference.is_none() {
            self.reference = Some(reports);
        }
        self.armed = self.arm();
        Pass { timed, sim, cells }
    }

    fn check(&mut self, checks: &mut Checks) {
        for (i, report) in self.reference.iter().flatten().enumerate() {
            let mut failures = Vec::new();
            if report.frames() != FRAMES {
                failures.push(format!("{} frames, expected {FRAMES}", report.frames()));
            }
            if report.monitor_report().is_none() {
                failures.push("no monitor report attached".into());
            }
            checks.cell(&format!("flat cell {i}"), failures);
        }
    }

    fn traced_pass(&mut self, tracer: &Tracer, mut checks: Option<&mut Checks>) -> TracedPass {
        let (mut frames, mut wall_ns) = (0u64, 0u64);
        let (mut transitions, mut explorations, mut violations) = (0u64, 0u64, 0usize);
        for (i, mut cell) in self.arm().into_iter().enumerate() {
            let start = Instant::now();
            let report = traced_cell(&mut cell, tracer);
            wall_ns += elapsed_ns(start);
            frames += report.frames();
            transitions += report.transitions();
            explorations += cell.gov.exploration_count();
            violations += report
                .monitor_report()
                .map_or(0, qgov_metrics::MonitorReport::violation_count);
            if let Some(checks) = checks.as_deref_mut() {
                let failures = match self.reference(i) {
                    Some(reference) if same_bits(&report, reference) => Vec::new(),
                    _ => vec!["benchmark-side loop report differs from the harness".into()],
                };
                checks.cell(&format!("flat traced cell {i}"), failures);
            }
        }
        let epochs = frames.max(1) as f64;
        TracedPass {
            frames,
            wall_ns,
            spans: tracer.drain(),
            counters: vec![
                ("sim.opp_transitions_per_epoch", transitions as f64 / epochs),
                ("rl.exploration_ratio", explorations as f64 / epochs),
                (
                    "metrics.monitor_violations",
                    violations as f64 / INSTANCES as f64,
                ),
            ],
        }
    }

    fn decorated(&mut self, tracer: &Tracer, checks: &mut Checks) -> Decorated {
        let mut totals = LayerTotals::default();
        let mut frames = 0;
        for (i, mut cell) in self.arm().into_iter().enumerate() {
            let report = {
                let mut gov = TimedGovernor::new(&mut cell.gov, tracer);
                let mut app = TimedApp::new(&mut cell.replay, tracer);
                run_experiment_monitored(&mut gov, &mut app, platform(), FRAMES, &mut cell.monitors)
                    .report
            };
            totals.add(&tracer.drain());
            frames += report.frames();
            let failures = match self.reference(i) {
                Some(reference) if same_bits(&report, reference) => Vec::new(),
                _ => vec!["decorated harness report differs from the untraced run".into()],
            };
            checks.cell(&format!("flat decorated cell {i}"), failures);
        }
        Decorated {
            counters: Vec::new(),
            notes: vec![totals.decorator_note(frames)],
        }
    }
}

/// `run_experiment_monitored`'s epoch loop, stepped here so every
/// layer call it makes gets a span.
fn traced_cell(cell: &mut Armed, tracer: &Tracer) -> RunReport {
    let mut governor = TimedGovernor::new(&mut cell.gov, tracer);
    let mut app = TimedApp::new(&mut cell.replay, tracer);
    let monitors = &mut cell.monitors;

    let mut platform = Platform::new(platform()).expect("valid platform config");
    let period = app.period();
    let cores = platform.cores();
    let ctx = GovernorContext::new(platform.opp_table().clone(), cores, period);
    app.reset();
    let first = governor.init(&ctx);
    apply_decision(&mut platform, &first).expect("initial decision in range");
    let total = FRAMES.min(app.frames());
    let mut report = RunReport::new(governor.name(), app.name(), period);
    report.reserve_frames(usize::try_from(total).unwrap_or(usize::MAX));

    let mut demand = FrameDemand::default();
    let mut work = vec![WorkSlice::IDLE; cores];
    let mut frame = FrameResult::empty();
    for epoch in 0..total {
        tracer.set_epoch(epoch);
        tracer.span(Layer::Epoch, || {
            app.next_frame_into(&mut demand);
            to_work_slices_into(&demand, &mut work);
            tracer.span(Layer::RunFrame, || {
                platform
                    .run_frame_into(&work, period, &mut frame)
                    .expect("work vector sized to cores");
            });
            tracer.span(Layer::Record, || {
                report.record_frame(
                    frame.frame_time,
                    frame.wall_time,
                    frame.energy,
                    frame.cluster_opp,
                    frame.met_deadline(),
                );
            });
            let decision = governor.decide(&EpochObservation {
                frame: &frame,
                epoch,
            });
            tracer.span(Layer::Monitor, || {
                monitors.observe(&MonitorSample {
                    epoch,
                    frame_time_ratio: frame.frame_time.ratio(period),
                    met_deadline: frame.met_deadline(),
                    opp: frame.cluster_opp,
                    temperature_c: frame.temperature.as_celsius(),
                    energy_j: frame.energy.as_joules(),
                    epsilon: governor.exploration_epsilon().unwrap_or(f64::NAN),
                    converged: governor.has_converged().unwrap_or(false),
                });
            });
            tracer.span(Layer::Actuate, || {
                apply_decision(&mut platform, &decision).expect("decision in range");
                platform.add_overhead(governor.processing_overhead());
            });
        });
    }
    report.set_run_totals(
        platform.total_energy(),
        platform.vf().transitions(),
        platform.vf().total_latency(),
        platform.peak_temperature(),
    );
    report.set_monitor_report(monitors.report());
    report
}
