//! Per-run accounting.

use crate::monitor::MonitorReport;
use crate::{OnlineStats, WindowedStats};
use qgov_units::{Energy, Power, SimTime, Temp};

/// Windowed per-frame folds kept instead of raw [`FrameStat`]s when a
/// report runs in windowed retention
/// ([`RunReport::with_windowed_frames`]): one [`WindowedStats`] per
/// tracked signal, so a multi-million-frame horizon costs O(windows)
/// memory while every whole-run scalar on [`RunReport`] stays
/// bit-identical to full retention.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameWindows {
    ratio: WindowedStats,
    energy_j: WindowedStats,
    opp: WindowedStats,
    miss: WindowedStats,
}

impl FrameWindows {
    fn new(window_len: u64) -> Self {
        FrameWindows {
            ratio: WindowedStats::new(window_len),
            energy_j: WindowedStats::new(window_len),
            opp: WindowedStats::new(window_len),
            miss: WindowedStats::new(window_len),
        }
    }

    fn push(&mut self, ratio: f64, energy_j: f64, opp: usize, met_deadline: bool) {
        self.ratio.push(ratio);
        self.energy_j.push(energy_j);
        self.opp.push(opp as f64);
        self.miss.push(if met_deadline { 0.0 } else { 1.0 });
    }

    fn reserve_frames(&mut self, frames: usize) {
        let windows = (frames as u64)
            .div_ceil(self.ratio.window_len())
            .saturating_add(1) as usize;
        self.ratio.reserve(windows);
        self.energy_j.reserve(windows);
        self.opp.reserve(windows);
        self.miss.reserve(windows);
    }

    /// Samples per full window.
    #[must_use]
    pub fn window_len(&self) -> u64 {
        self.ratio.window_len()
    }

    /// Windowed fold of the per-frame `Tᵢ / T_ref` performance ratio.
    #[must_use]
    pub fn ratio(&self) -> &WindowedStats {
        &self.ratio
    }

    /// Windowed fold of per-frame ground-truth energy in joules.
    #[must_use]
    pub fn energy_j(&self) -> &WindowedStats {
        &self.energy_j
    }

    /// Windowed fold of the cluster OPP index.
    #[must_use]
    pub fn opp(&self) -> &WindowedStats {
        &self.opp
    }

    /// Windowed fold of the deadline-miss indicator (1 = missed).
    #[must_use]
    pub fn miss(&self) -> &WindowedStats {
        &self.miss
    }
}

/// Minimal per-frame record kept by a run for downstream analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameStat {
    /// Execution time of the frame (including overheads).
    pub frame_time: SimTime,
    /// Wall-clock span of the epoch.
    pub wall_time: SimTime,
    /// Ground-truth energy of the epoch.
    pub energy: Energy,
    /// Cluster OPP index the frame ran at.
    pub opp: usize,
    /// Whether the deadline was met.
    pub met_deadline: bool,
}

/// Accumulated results of one governor × application run.
///
/// Normalisation follows the paper's Table I conventions:
/// *performance* is normalised to the required per-frame time `T_ref`
/// (values < 1 mean over-performance, > 1 mean under-performance), and
/// *energy* is normalised to the Oracle's consumption on the identical
/// workload.
///
/// # Examples
///
/// ```
/// use qgov_metrics::RunReport;
/// use qgov_units::{Energy, SimTime};
///
/// let mut report = RunReport::new("mygov", "myapp", SimTime::from_ms(40));
/// report.record_frame(
///     SimTime::from_ms(30), SimTime::from_ms(40),
///     Energy::from_joules(0.1), 7, true,
/// );
/// assert_eq!(report.frames(), 1);
/// assert!((report.normalized_performance() - 0.75).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    governor: String,
    app: String,
    period: SimTime,
    frames: Vec<FrameStat>,
    /// `Some` in windowed retention: per-frame folds replacing the raw
    /// `frames` vector (which then stays empty).
    windows: Option<FrameWindows>,
    /// Streaming frame counter — authoritative in both retention
    /// modes, so whole-run scalars never depend on `frames.len()`.
    frame_count: u64,
    /// Streaming OPP-index sum, accumulated in record order (the same
    /// left-to-right fold a post-hoc sum over `frames` performs, so
    /// [`mean_opp`](RunReport::mean_opp) is bit-identical across
    /// retention modes).
    opp_sum: f64,
    frame_time_ratio: OnlineStats,
    total_energy: Energy,
    total_measured_energy: Energy,
    total_wall: SimTime,
    misses: u64,
    transitions: u64,
    total_overhead: SimTime,
    peak_temp: Temp,
    /// Temporal-property verdicts, when the run was monitored. `None`
    /// for unmonitored runs, so monitored and plain reports of the same
    /// run differ only here.
    monitor: Option<MonitorReport>,
}

impl RunReport {
    /// Creates an empty report.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(governor: impl Into<String>, app: impl Into<String>, period: SimTime) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        RunReport {
            governor: governor.into(),
            app: app.into(),
            period,
            frames: Vec::new(),
            windows: None,
            frame_count: 0,
            opp_sum: 0.0,
            frame_time_ratio: OnlineStats::new(),
            total_energy: Energy::ZERO,
            total_measured_energy: Energy::ZERO,
            total_wall: SimTime::ZERO,
            misses: 0,
            transitions: 0,
            total_overhead: SimTime::ZERO,
            peak_temp: Temp::default(),
            monitor: None,
        }
    }

    /// Switches the report to **windowed retention** before any frame
    /// is recorded: instead of one [`FrameStat`] per frame, per-frame
    /// signals stream into [`FrameWindows`] folds of `window_len`
    /// frames each, keeping a multi-million-frame run O(windows). All
    /// whole-run scalars (`frames`, `normalized_performance`,
    /// `miss_rate`, `mean_opp`, energies) are computed from streaming
    /// accumulators and stay bit-identical to full retention;
    /// [`frame_stats`](RunReport::frame_stats) returns an empty slice.
    ///
    /// # Panics
    ///
    /// Panics if frames were already recorded or `window_len` is zero.
    #[must_use]
    pub fn with_windowed_frames(mut self, window_len: u64) -> Self {
        assert_eq!(
            self.frame_count, 0,
            "retention must be chosen before recording frames"
        );
        self.windows = Some(FrameWindows::new(window_len));
        self
    }

    /// Pre-reserves capacity for `frames` further
    /// [`record_frame`](RunReport::record_frame) calls, so a run of
    /// known length records every frame without reallocating (the
    /// harness's zero-allocation steady-state loop). In windowed
    /// retention this reserves the window summaries instead.
    pub fn reserve_frames(&mut self, frames: usize) {
        match &mut self.windows {
            Some(w) => w.reserve_frames(frames),
            None => self.frames.reserve(frames),
        }
    }

    /// Records one frame's outcome.
    pub fn record_frame(
        &mut self,
        frame_time: SimTime,
        wall_time: SimTime,
        energy: Energy,
        opp: usize,
        met_deadline: bool,
    ) {
        let ratio = frame_time.ratio(self.period);
        match &mut self.windows {
            Some(w) => w.push(ratio, energy.as_joules(), opp, met_deadline),
            None => self.frames.push(FrameStat {
                frame_time,
                wall_time,
                energy,
                opp,
                met_deadline,
            }),
        }
        self.frame_count += 1;
        self.opp_sum += opp as f64;
        self.frame_time_ratio.push(ratio);
        self.total_energy += energy;
        self.total_wall += wall_time;
        if !met_deadline {
            self.misses += 1;
        }
    }

    /// Records run-wide extras not visible per frame. `meter_energy`
    /// is the whole-run energy as an external meter reports it; every
    /// harness passes the platform's ground-truth total.
    pub fn set_run_totals(
        &mut self,
        meter_energy: Energy,
        transitions: u64,
        total_overhead: SimTime,
        peak_temp: Temp,
    ) {
        self.total_measured_energy = meter_energy;
        self.transitions = transitions;
        self.total_overhead = total_overhead;
        self.peak_temp = peak_temp;
    }

    /// Governor name.
    #[must_use]
    pub fn governor(&self) -> &str {
        &self.governor
    }

    /// Application name.
    #[must_use]
    pub fn app(&self) -> &str {
        &self.app
    }

    /// The per-frame deadline `T_ref`.
    #[must_use]
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Number of frames recorded.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frame_count
    }

    /// The per-frame records. Empty in windowed retention — use
    /// [`frame_windows`](RunReport::frame_windows) there.
    #[must_use]
    pub fn frame_stats(&self) -> &[FrameStat] {
        &self.frames
    }

    /// The windowed per-frame folds, when the report runs in windowed
    /// retention ([`with_windowed_frames`](RunReport::with_windowed_frames)).
    #[must_use]
    pub fn frame_windows(&self) -> Option<&FrameWindows> {
        self.windows.as_ref()
    }

    /// Ground-truth energy of the whole run.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.total_energy
    }

    /// Whole-run energy as recorded by
    /// [`set_run_totals`](RunReport::set_run_totals): the platform's
    /// ground-truth total in every harness, not a sum of sensor
    /// readings (per-frame sensor energy is
    /// `FrameResult::measured_energy`). Zero until the totals are set.
    #[must_use]
    pub fn measured_energy(&self) -> Energy {
        self.total_measured_energy
    }

    /// Mean ground-truth power over the run.
    #[must_use]
    pub fn avg_power(&self) -> Power {
        if self.total_wall.is_zero() {
            Power::ZERO
        } else {
            Power::from_watts(self.total_energy.as_joules() / self.total_wall.as_secs_f64())
        }
    }

    /// The paper's normalised performance: mean `Tᵢ / T_ref`. Values
    /// below 1 are over-performance, above 1 under-performance.
    #[must_use]
    pub fn normalized_performance(&self) -> f64 {
        self.frame_time_ratio.mean()
    }

    /// The paper's normalised energy with respect to a reference run
    /// (the Oracle in Table I).
    ///
    /// # Panics
    ///
    /// Panics if the reference consumed zero energy.
    #[must_use]
    pub fn normalized_energy(&self, reference: &RunReport) -> f64 {
        self.total_energy.normalized_to(reference.total_energy)
    }

    /// Number of missed deadlines.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of frames that missed their deadline.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.frame_count == 0 {
            0.0
        } else {
            self.misses as f64 / self.frame_count as f64
        }
    }

    /// Number of V-F transitions performed.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Total learning/DVFS overhead time charged (`ΣT_OVH`).
    #[must_use]
    pub fn total_overhead(&self) -> SimTime {
        self.total_overhead
    }

    /// Peak die temperature of the run.
    #[must_use]
    pub fn peak_temp(&self) -> Temp {
        self.peak_temp
    }

    /// Attaches the temporal-monitor verdicts of a monitored run.
    pub fn set_monitor_report(&mut self, monitor: MonitorReport) {
        self.monitor = Some(monitor);
    }

    /// The temporal-monitor verdicts, when the run was monitored.
    #[must_use]
    pub fn monitor_report(&self) -> Option<&MonitorReport> {
        self.monitor.as_ref()
    }

    /// Strips the monitor verdicts, restoring the exact report an
    /// unmonitored run produces — the form the bit-identity seams
    /// compare.
    #[must_use]
    pub fn without_monitor_report(mut self) -> Self {
        self.monitor = None;
        self
    }

    /// Mean OPP index over the run (a quick energy-behaviour summary).
    #[must_use]
    pub fn mean_opp(&self) -> f64 {
        if self.frame_count == 0 {
            return 0.0;
        }
        self.opp_sum / self.frame_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(ratios: &[f64], energies_j: &[f64], met: &[bool]) -> RunReport {
        let period = SimTime::from_ms(100);
        let mut r = RunReport::new("g", "a", period);
        for ((&ratio, &e), &m) in ratios.iter().zip(energies_j).zip(met) {
            r.record_frame(
                period.scale(ratio),
                period.max(period.scale(ratio)),
                Energy::from_joules(e),
                5,
                m,
            );
        }
        r
    }

    #[test]
    fn normalized_performance_is_mean_ratio() {
        let r = report_with(&[0.5, 1.0, 1.5], &[1.0; 3], &[true, true, false]);
        assert!((r.normalized_performance() - 1.0).abs() < 1e-12);
        let over = report_with(&[0.5, 0.9], &[1.0; 2], &[true, true]);
        assert!((over.normalized_performance() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn normalized_energy_uses_reference() {
        let ours = report_with(&[1.0], &[11.1], &[true]);
        let oracle = report_with(&[1.0], &[10.0], &[true]);
        assert!((ours.normalized_energy(&oracle) - 1.11).abs() < 1e-12);
    }

    #[test]
    fn miss_accounting() {
        let r = report_with(&[1.0; 4], &[1.0; 4], &[true, false, true, false]);
        assert_eq!(r.deadline_misses(), 2);
        assert!((r.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn avg_power_is_energy_over_wall() {
        let r = report_with(&[1.0, 1.0], &[2.0, 4.0], &[true, true]);
        // 6 J over 200 ms = 30 W.
        assert!((r.avg_power().as_watts() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::new("g", "a", SimTime::from_ms(10));
        assert_eq!(r.frames(), 0);
        assert_eq!(r.normalized_performance(), 0.0);
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!(r.avg_power(), Power::ZERO);
        assert_eq!(r.mean_opp(), 0.0);
    }

    #[test]
    fn monitor_report_attaches_and_strips_cleanly() {
        use crate::{Property, PropertySet};
        let plain = report_with(&[1.0], &[1.0], &[true]);
        let mut monitored = plain.clone();
        let mut set = PropertySet::new().with("ok", Property::always(|_: &u64| true));
        set.observe(&0);
        monitored.set_monitor_report(set.report());
        assert_ne!(monitored, plain);
        assert!(monitored.monitor_report().unwrap().is_clean());
        assert_eq!(monitored.without_monitor_report(), plain);
    }

    #[test]
    fn windowed_retention_matches_full_retention_bit_for_bit() {
        let period = SimTime::from_ms(100);
        let ratios = [0.5, 0.9, 1.1, 1.0, 0.7, 1.3, 0.8];
        let energies = [1.0, 2.5, 0.5, 3.0, 1.5, 2.0, 0.25];
        let met = [true, true, false, true, true, false, true];

        let mut full = RunReport::new("g", "a", period);
        let mut windowed = RunReport::new("g", "a", period).with_windowed_frames(3);
        windowed.reserve_frames(ratios.len());
        for ((&ratio, &e), &m) in ratios.iter().zip(&energies).zip(&met) {
            for r in [&mut full, &mut windowed] {
                r.record_frame(
                    period.scale(ratio),
                    period.max(period.scale(ratio)),
                    Energy::from_joules(e),
                    (ratio * 10.0) as usize,
                    m,
                );
            }
        }

        // Every whole-run scalar is bit-identical across retentions.
        assert_eq!(full.frames(), windowed.frames());
        assert_eq!(
            full.normalized_performance().to_bits(),
            windowed.normalized_performance().to_bits()
        );
        assert_eq!(full.mean_opp().to_bits(), windowed.mean_opp().to_bits());
        assert_eq!(full.miss_rate().to_bits(), windowed.miss_rate().to_bits());
        assert_eq!(
            full.total_energy().as_joules().to_bits(),
            windowed.total_energy().as_joules().to_bits()
        );
        assert_eq!(full.deadline_misses(), windowed.deadline_misses());

        // Windowed retention drops the raw records and keeps the folds,
        // which equal a post-hoc re-fold of the full frame stream.
        assert!(windowed.frame_stats().is_empty());
        assert_eq!(full.frame_windows(), None);
        let folds = windowed.frame_windows().expect("windowed retention");
        assert_eq!(folds.window_len(), 3);
        let mut refold = WindowedStats::new(3);
        refold.extend(full.frame_stats().iter().map(|f| f.opp as f64));
        assert_eq!(folds.opp().clone().into_windows(), refold.into_windows());
        let miss_windows = folds.miss().clone().into_windows();
        let total_misses: f64 = miss_windows.iter().map(|w| w.mean * w.len as f64).sum();
        assert!((total_misses - windowed.deadline_misses() as f64).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "before recording frames")]
    fn windowed_retention_after_frames_panics() {
        let r = report_with(&[1.0], &[1.0], &[true]);
        let _ = r.with_windowed_frames(4);
    }

    #[test]
    fn run_totals_are_stored() {
        let mut r = report_with(&[1.0], &[1.0], &[true]);
        r.set_run_totals(
            Energy::from_joules(1.02),
            7,
            SimTime::from_ms(3),
            Temp::from_celsius(71.0),
        );
        assert_eq!(r.transitions(), 7);
        assert_eq!(r.total_overhead(), SimTime::from_ms(3));
        assert_eq!(r.peak_temp(), Temp::from_celsius(71.0));
        assert!((r.measured_energy().as_joules() - 1.02).abs() < 1e-12);
    }
}
