//! End-to-end integration: the full stack (workload → platform →
//! governor → metrics) must reproduce the qualitative physics the paper
//! relies on.

use qgov::prelude::*;

/// Runs one governor on the given recorded trace.
fn run_on(gov: &mut dyn Governor, trace: &WorkloadTrace, frames: u64) -> qgov::metrics::RunReport {
    run_experiment(
        gov,
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    )
    .report
}

#[test]
fn energy_ordering_matches_physics() {
    let frames = 500;
    let mut app = VideoDecoderModel::h264_football_15fps(9).with_frames(frames);
    let (trace, bounds) = precharacterize(&mut app);
    let table = OppTable::odroid_xu3_a15();

    let perf = run_on(&mut PerformanceGovernor::new(), &trace, frames);
    let save = run_on(&mut PowersaveGovernor::new(), &trace, frames);
    let mut oracle_gov = OracleGovernor::from_trace(&trace, &table, 0.02);
    let oracle = run_on(&mut oracle_gov, &trace, frames);
    let mut rtm_gov =
        RtmGovernor::new(RtmConfig::paper(9).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let rtm = run_on(&mut rtm_gov, &trace, frames);

    // Race-to-idle burns the most energy; the oracle can only save
    // energy relative to it.
    assert!(oracle.total_energy() < perf.total_energy());
    assert!(rtm.total_energy() < perf.total_energy());
    // The oracle is the energy floor among deadline-meeting strategies.
    assert!(oracle.normalized_energy(&oracle) <= rtm.normalized_energy(&oracle));
    // Powersave misses essentially everything on this tight workload.
    assert!(save.miss_rate() > 0.9);
    assert_eq!(perf.deadline_misses(), 0);
    assert_eq!(oracle.deadline_misses(), 0);
}

#[test]
fn rtm_beats_ondemand_on_energy_while_performing_closer_to_deadline() {
    let frames = 1_200;
    let mut app = VideoDecoderModel::h264_football_15fps(21).with_frames(frames);
    let (trace, bounds) = precharacterize(&mut app);

    let ondemand = run_on(&mut OndemandGovernor::linux_default(), &trace, frames);
    let mut rtm_gov =
        RtmGovernor::new(RtmConfig::paper(21).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let rtm = run_on(&mut rtm_gov, &trace, frames);

    assert!(
        rtm.total_energy() < ondemand.total_energy(),
        "the paper's headline: RTM saves energy vs ondemand ({} vs {})",
        rtm.total_energy(),
        ondemand.total_energy()
    );
    assert!(
        rtm.normalized_performance() > ondemand.normalized_performance(),
        "RTM runs closer to the deadline (less over-performance)"
    );
}

#[test]
fn oracle_meets_deadlines_at_minimum_sufficient_opp() {
    let frames = 200;
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(3).with_frames(frames);
    let (trace, _) = precharacterize(&mut app);
    let table = OppTable::odroid_xu3_a15();
    let mut oracle_gov = OracleGovernor::from_trace(&trace, &table, 0.02);
    let report = run_on(&mut oracle_gov, &trace, frames);
    assert_eq!(report.deadline_misses(), 0);

    // Any uniformly slower schedule must miss at least one frame: pin
    // one OPP below the oracle's busiest choice.
    let max_opp = oracle_gov.schedule().iter().copied().max().unwrap();
    assert!(max_opp > 0, "workload must exercise DVFS range");
    let mut pinned = UserspaceGovernor::pinned(max_opp - 1);
    let pinned_report = run_on(&mut pinned, &trace, frames);
    assert!(
        pinned_report.deadline_misses() > 0,
        "one OPP below the oracle's peak must miss"
    );
}

#[test]
fn overheads_lengthen_frames_and_are_accounted() {
    let frames = 100;
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(5).with_frames(frames);
    let (trace, bounds) = precharacterize(&mut app);

    let mut rtm =
        RtmGovernor::new(RtmConfig::paper(5).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let outcome = run_experiment(
        &mut rtm,
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    );
    // The governor switched V-F at least once, so transition latency
    // plus processing overhead must be visible in the totals.
    assert!(outcome.report.transitions() > 0);
    assert!(!outcome.report.total_overhead().is_zero());
    assert!(outcome.platform.vf().total_latency() > SimTime::ZERO);
}

#[test]
fn thermal_trajectory_reflects_governor_aggressiveness() {
    let frames = 400;
    let mut app = VideoDecoderModel::h264_football_15fps(13).with_frames(frames);
    let (trace, _) = precharacterize(&mut app);

    let hot = run_experiment(
        &mut PerformanceGovernor::new(),
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    );
    let cold = run_experiment(
        &mut PowersaveGovernor::new(),
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    );
    assert!(
        hot.platform.peak_temperature() > cold.platform.peak_temperature(),
        "racing at 2 GHz must run hotter than crawling at 200 MHz"
    );
    assert!(
        hot.platform.peak_temperature().as_celsius() < 95.0,
        "no thermal runaway"
    );
}

/// Delegates to an inner governor and sums the sensor-measured energy
/// (`FrameResult::measured_energy`) of every frame it observes.
struct SensorTap<G> {
    inner: G,
    measured_j: f64,
}

impl<G: Governor> Governor for SensorTap<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &GovernorContext) -> VfDecision {
        self.inner.init(ctx)
    }

    fn decide(&mut self, obs: &EpochObservation<'_>) -> VfDecision {
        self.measured_j += obs.frame.measured_energy().as_joules();
        self.inner.decide(obs)
    }

    fn processing_overhead(&self) -> SimTime {
        self.inner.processing_overhead()
    }
}

#[test]
fn sensor_measured_energy_tracks_ground_truth() {
    let frames = 300;
    let mut app = VideoDecoderModel::h264_football_15fps(17).with_frames(frames);
    let (trace, _) = precharacterize(&mut app);
    let mut tap = SensorTap {
        inner: OndemandGovernor::linux_default(),
        measured_j: 0.0,
    };
    let report = run_on(&mut tap, &trace, frames);
    assert_eq!(report.frames(), frames);
    let truth = report.total_energy().as_joules();
    let rel = (tap.measured_j - truth).abs() / truth;
    assert!(
        rel > 0.0 && rel < 0.02,
        "INA231-style sensing should stay within 2% of truth (and not equal it), got {:.3}%",
        rel * 100.0
    );
}
