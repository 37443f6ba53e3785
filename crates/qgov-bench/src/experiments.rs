//! One function per table/figure of the paper's evaluation section.
//!
//! Every function is deterministic in its seed, runs all methodologies
//! on the *identical* recorded workload trace (so comparisons are
//! frame-for-frame fair), and returns both structured rows and a
//! rendered [`ComparisonTable`].
//!
//! # Batched execution
//!
//! Each experiment expands its methodology/configuration grid into
//! [`ExperimentBatch`] cells, so the `*_with` variants accept a
//! [`RunnerConfig`] choosing serial or parallel execution. Every cell
//! clones the shared pre-characterised trace and builds its own
//! governor and platform, which is what makes the parallel path
//! bit-identical to the serial one (see [`crate::runner`]). The
//! seed-only forms ([`run_table1`], …) read the policy from
//! `QGOV_WORKERS` via [`RunnerConfig::from_env`].
//!
//! ```
//! use qgov_bench::experiments::run_table2_with;
//! use qgov_bench::runner::RunnerConfig;
//!
//! // Table II's six cells (3 applications × {UPD, EPD}) on 2 workers.
//! let result = run_table2_with(1, 80, &RunnerConfig::with_workers(2));
//! assert_eq!(result.rows.len(), 3);
//! ```

use crate::harness::{precharacterize, run_experiment, run_experiment_monitored};
use crate::runner::{ExperimentBatch, RunnerConfig};
use crate::worklist::{slug, CellMetrics};
use qgov_core::{HistoryMode, RtmConfig, RtmGovernor, StateKind};
use qgov_governors::{
    ConservativeGovernor, GeQiuConfig, GeQiuGovernor, Governor, OndemandGovernor, OracleGovernor,
};
use qgov_metrics::{
    standard_pack, ComparisonTable, MispredictionStats, MonitorReport, PackConfig, RunReport,
    Series, WindowSummary, WindowedStats,
};
use qgov_sim::{OppTable, PlatformConfig};
use qgov_workloads::shard::ScratchDir;
use qgov_workloads::{Application, FftModel, ShardedTrace, VideoDecoderModel, WorkloadTrace};

fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// One methodology's outcome in the Table I comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Methodology name.
    pub method: String,
    /// Energy normalised to the Oracle's (paper: ondemand 1.29,
    /// multi-core DVFS 1.20, proposed 1.11).
    pub normalized_energy: f64,
    /// Mean `Tᵢ/T_ref` (paper: 0.77 / 0.89 / 0.96).
    pub normalized_performance: f64,
    /// Fraction of missed deadlines (not in the paper's table; useful
    /// context).
    pub miss_rate: f64,
    /// Mean OPP index over the run.
    pub mean_opp: f64,
    /// Absolute ground-truth energy in joules.
    pub energy_joules: f64,
}

/// The Table I experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// One row per methodology (ondemand, multi-core DVFS \[20\],
    /// proposed, oracle).
    pub rows: Vec<Table1Row>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

impl Table1Result {
    /// The result as campaign metrics: `normalized_energy`,
    /// `normalized_performance`, `miss_rate`, `mean_opp` and
    /// `energy_joules`, each keyed by methodology (`…/rtm`).
    #[must_use]
    pub fn metrics(&self) -> CellMetrics {
        let mut out = CellMetrics::new();
        for (label, row) in TABLE1_LABELS.iter().zip(&self.rows) {
            out.push((format!("normalized_energy/{label}"), row.normalized_energy));
            out.push((
                format!("normalized_performance/{label}"),
                row.normalized_performance,
            ));
            out.push((format!("miss_rate/{label}"), row.miss_rate));
            out.push((format!("mean_opp/{label}"), row.mean_opp));
            out.push((format!("energy_joules/{label}"), row.energy_joules));
        }
        out
    }
}

/// **Table I** — comparative normalised energy and performance on the
/// H.264 football sequence (paper Section III-A), with the execution
/// policy read from `QGOV_WORKERS` ([`RunnerConfig::from_env`]).
#[must_use]
pub fn run_table1(seed: u64, frames: u64) -> Table1Result {
    run_table1_with(seed, frames, &RunnerConfig::from_env())
}

/// **Table I** under an explicit [`RunnerConfig`].
///
/// All methodologies replay the identical recorded trace; energy is
/// normalised to the Oracle run, performance to `T_ref`. The four
/// methodology runs are independent batch cells.
#[must_use]
pub fn run_table1_with(seed: u64, frames: u64, runner: &RunnerConfig) -> Table1Result {
    let prep = football_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(TABLE1_LABELS, &[seed], &[frames], |label, seed, frames| {
        table1_cell(label, &prep, seed, frames)
    });
    table1_assemble(batch.run(runner))
}

/// A pre-characterised per-seed workload: the recorded trace every
/// methodology cell of one experiment family replays, plus its
/// `(min, max)` total-cycle bounds.
#[derive(Debug, Clone)]
pub(crate) struct TracePrep {
    pub(crate) trace: WorkloadTrace,
    pub(crate) bounds: (f64, f64),
}

impl TracePrep {
    /// Records `app` ([`precharacterize`]).
    pub(crate) fn record(app: &mut dyn Application) -> Self {
        let (trace, bounds) = precharacterize(app);
        TracePrep { trace, bounds }
    }
}

/// Table I's methodology cells, in row order.
pub(crate) const TABLE1_LABELS: &[&str] = &["ondemand", "geqiu", "rtm", "oracle"];

/// Records the H.264 football sequence for one seed: the workload of
/// Table I and of the state-levels and shared-table ablations.
pub(crate) fn football_prepare(seed: u64, frames: u64) -> TracePrep {
    TracePrep::record(&mut VideoDecoderModel::h264_football_15fps(seed).with_frames(frames))
}

/// Runs one Table I methodology cell against the prepared trace.
pub(crate) fn table1_cell(label: &str, prep: &TracePrep, seed: u64, frames: u64) -> RunReport {
    let config = PlatformConfig::odroid_xu3_a15();
    let mut replay = prep.trace.clone();
    match label {
        "ondemand" => {
            let mut gov = OndemandGovernor::linux_default();
            run_experiment(&mut gov, &mut replay, config, frames).report
        }
        "geqiu" => {
            let mut gov = GeQiuGovernor::new(GeQiuConfig::paper(seed));
            run_experiment(&mut gov, &mut replay, config, frames).report
        }
        "rtm" => {
            let mut gov = RtmGovernor::new(
                RtmConfig::paper(seed).with_workload_bounds(prep.bounds.0, prep.bounds.1),
            )
            .expect("paper config is valid");
            run_experiment(&mut gov, &mut replay, config, frames).report
        }
        "oracle" => {
            let mut gov =
                OracleGovernor::from_trace(&prep.trace, &OppTable::odroid_xu3_a15(), 0.02);
            run_experiment(&mut gov, &mut replay, config, frames).report
        }
        other => unreachable!("unknown Table I cell {other}"),
    }
}

/// Folds Table I's methodology reports (in [`TABLE1_LABELS`] order)
/// into the result bundle.
pub(crate) fn table1_assemble(reports: Vec<RunReport>) -> Table1Result {
    let oracle_report = reports.last().expect("oracle cell present").clone();

    let label = |name: &str| -> String {
        match name {
            "ondemand" => "Linux Ondemand [5]".into(),
            "geqiu" => "Multi-core DVFS control [20]".into(),
            "rtm" => "Proposed".into(),
            "oracle" => "Oracle (reference)".into(),
            other => other.into(),
        }
    };
    let rows: Vec<Table1Row> = reports
        .iter()
        .map(|r| Table1Row {
            method: label(r.governor()),
            normalized_energy: r.normalized_energy(&oracle_report),
            normalized_performance: r.normalized_performance(),
            miss_rate: r.miss_rate(),
            mean_opp: r.mean_opp(),
            energy_joules: r.total_energy().as_joules(),
        })
        .collect();

    let mut table = ComparisonTable::new(vec![
        "Methodology",
        "Normalized energy",
        "Normalized performance",
        "Miss rate",
        "Mean OPP",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.method.clone(),
            fmt2(row.normalized_energy),
            fmt2(row.normalized_performance),
            fmt_pct(row.miss_rate),
            format!("{:.1}", row.mean_opp),
        ]);
    }
    Table1Result { rows, table }
}

/// One application's outcome in the Table II comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Application label, e.g. "MPEG4 (30 fps)".
    pub app: String,
    /// Explorations to convergence with uniform exploration (\[21\];
    /// paper: 144 / 149 / 119).
    pub upd_explorations: u64,
    /// Explorations to convergence with the EPD (ours; paper: 83 / 90 /
    /// 74).
    pub epd_explorations: u64,
}

/// The Table II experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// One row per application.
    pub rows: Vec<Table2Row>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

impl Table2Result {
    /// The result as campaign metrics: `upd_explorations`,
    /// `epd_explorations` and their per-seed ratio `epd_upd_ratio` (the
    /// paper's headline reduction), each keyed by application
    /// (`…/mpeg4`).
    #[must_use]
    pub fn metrics(&self) -> CellMetrics {
        let mut out = CellMetrics::new();
        // TABLE2_LABELS pairs (app/upd, app/epd) fold into one row per
        // app; recover the short app key from the pair.
        let apps = TABLE2_LABELS
            .iter()
            .step_by(2)
            .map(|label| label.split('/').next().expect("app/policy label"));
        for (app, row) in apps.zip(&self.rows) {
            let (upd, epd) = (row.upd_explorations as f64, row.epd_explorations as f64);
            out.push((format!("upd_explorations/{app}"), upd));
            out.push((format!("epd_explorations/{app}"), epd));
            out.push((format!("epd_upd_ratio/{app}"), epd / upd));
        }
        out
    }
}

fn explorations_of(rtm: &RtmGovernor) -> u64 {
    rtm.explorations_to_convergence()
        .unwrap_or_else(|| rtm.exploration_count())
}

/// **Table II** — number of explorations until convergence, EPD (Eq. 2)
/// versus the uniform-probability baseline \[21\] (Section III-C), with
/// the execution policy read from `QGOV_WORKERS`.
#[must_use]
pub fn run_table2(seed: u64, frames: u64) -> Table2Result {
    run_table2_with(seed, frames, &RunnerConfig::from_env())
}

/// **Table II** under an explicit [`RunnerConfig`]: the paper's three
/// applications × {UPD, EPD} expand to six batch cells.
#[must_use]
pub fn run_table2_with(seed: u64, frames: u64, runner: &RunnerConfig) -> Table2Result {
    let prep = table2_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(TABLE2_LABELS, &[seed], &[frames], |label, seed, frames| {
        table2_cell(label, &prep, seed, frames)
    });
    table2_assemble(batch.run(runner))
}

/// Table II's application display names, in row order.
const TABLE2_APPS: &[&str] = &["MPEG4 (30 fps)", "H.264 (15 fps)", "FFT (32 fps)"];

/// Table II's cells: each application × {UPD, EPD}, in
/// [`TABLE2_APPS`] order with UPD first (the paper's column order).
pub(crate) const TABLE2_LABELS: &[&str] = &[
    "mpeg4/upd",
    "mpeg4/epd",
    "h264/upd",
    "h264/epd",
    "fft/upd",
    "fft/epd",
];

/// Records Table II's three per-seed application traces (frames only
/// caps the replay, not the recording — each app keeps its own
/// length).
pub(crate) fn table2_prepare(seed: u64, _frames: u64) -> Vec<TracePrep> {
    let mut apps: Vec<Box<dyn Application>> = vec![
        Box::new(VideoDecoderModel::mpeg4_30fps(seed)),
        Box::new(VideoDecoderModel::h264_football_15fps(seed)),
        Box::new(FftModel::fft_32fps(seed)),
    ];
    apps.iter_mut()
        .map(|app| TracePrep::record(app.as_mut()))
        .collect()
}

/// Runs one Table II cell: the RTM under the labelled exploration
/// policy on the labelled application's trace, reporting explorations
/// to convergence.
pub(crate) fn table2_cell(label: &str, prep: &[TracePrep], seed: u64, frames: u64) -> u64 {
    let index = TABLE2_LABELS
        .iter()
        .position(|&l| l == label)
        .unwrap_or_else(|| unreachable!("unknown Table II cell {label}"));
    let app_prep = &prep[index / 2];
    let config = if index % 2 == 0 {
        RtmConfig::upd_baseline(seed)
    } else {
        RtmConfig::paper(seed)
    };
    let mut rtm =
        RtmGovernor::new(config.with_workload_bounds(app_prep.bounds.0, app_prep.bounds.1))
            .expect("valid config");
    let mut replay = app_prep.trace.clone();
    run_experiment(
        &mut rtm,
        &mut replay,
        PlatformConfig::odroid_xu3_a15(),
        frames,
    );
    explorations_of(&rtm)
}

/// Folds Table II's exploration counts (in [`TABLE2_LABELS`] order)
/// into the result bundle.
pub(crate) fn table2_assemble(counts: Vec<u64>) -> Table2Result {
    let rows: Vec<Table2Row> = TABLE2_APPS
        .iter()
        .zip(counts.chunks_exact(2))
        .map(|(app, pair)| Table2Row {
            app: (*app).into(),
            upd_explorations: pair[0],
            epd_explorations: pair[1],
        })
        .collect();

    let mut table = ComparisonTable::new(vec![
        "Application",
        "Explorations [21] (UPD)",
        "Our approach (EPD)",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.app.clone(),
            row.upd_explorations.to_string(),
            row.epd_explorations.to_string(),
        ]);
    }
    Table2Result { rows, table }
}

/// One methodology's outcome in the Table III comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Row {
    /// Methodology name.
    pub method: String,
    /// Decision epochs of the exploration phase — the period that pays
    /// full learning overhead every epoch (paper: 205 for \[20\], 105
    /// for the proposed approach).
    pub exploration_epochs: u64,
    /// Decision epochs until the learnt greedy policy stabilised
    /// (secondary, measurement-based view of the same quantity).
    pub convergence_epochs: Option<u64>,
}

/// The Table III experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Result {
    /// One row per methodology.
    pub rows: Vec<Table3Row>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

impl Table3Result {
    /// The result as campaign metrics: `exploration_epochs` and, for
    /// the methodologies that converged, `convergence_epochs`, keyed by
    /// methodology (`…/geqiu`, `…/rtm`).
    #[must_use]
    pub fn metrics(&self) -> CellMetrics {
        let mut out = CellMetrics::new();
        for (label, row) in TABLE3_LABELS.iter().zip(&self.rows) {
            out.push((
                format!("exploration_epochs/{label}"),
                row.exploration_epochs as f64,
            ));
            if let Some(epochs) = row.convergence_epochs {
                out.push((format!("convergence_epochs/{label}"), epochs as f64));
            }
        }
        out
    }
}

/// **Table III** — worst-case learning overhead in decision epochs
/// (Section III-D), with the execution policy read from `QGOV_WORKERS`.
#[must_use]
pub fn run_table3(seed: u64, frames: u64) -> Table3Result {
    run_table3_with(seed, frames, &RunnerConfig::from_env())
}

/// **Table III** under an explicit [`RunnerConfig`]: the two
/// methodologies (per-core \[20\] and shared-table proposed) run as
/// independent batch cells on an ffmpeg-style decode with `T_ref` =
/// 31 ms. The shared Q-table converges roughly twice as fast.
#[must_use]
pub fn run_table3_with(seed: u64, frames: u64, runner: &RunnerConfig) -> Table3Result {
    let prep = table3_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(TABLE3_LABELS, &[seed], &[frames], |label, seed, frames| {
        table3_cell(label, &prep, seed, frames)
    });
    table3_assemble(batch.run(runner))
}

/// Table III's methodology cells, in row order.
pub(crate) const TABLE3_LABELS: &[&str] = &["geqiu", "rtm"];

/// Records Table III's per-seed workload: the paper's overhead
/// workload, an ffmpeg decode at `T_ref` = 31 ms (~32 fps MPEG4).
pub(crate) fn table3_prepare(seed: u64, _frames: u64) -> TracePrep {
    let mut params = VideoDecoderModel::mpeg4_svga_24fps(seed).params().clone();
    params.name = "mpeg4-31ms".into();
    params.fps = 1.0 / 0.031;
    params.forced_scene_frames.clear();
    TracePrep::record(&mut VideoDecoderModel::new(params).expect("valid params"))
}

/// Runs one Table III methodology cell, reporting
/// `(exploration_epochs, converged_at)`.
pub(crate) fn table3_cell(
    label: &str,
    prep: &TracePrep,
    seed: u64,
    frames: u64,
) -> (u64, Option<u64>) {
    let mut replay = prep.trace.clone();
    match label {
        "geqiu" => {
            let mut geqiu = GeQiuGovernor::new(GeQiuConfig::paper(seed));
            run_experiment(
                &mut geqiu,
                &mut replay,
                PlatformConfig::odroid_xu3_a15(),
                frames,
            );
            (geqiu.exploration_phase_epochs(), geqiu.converged_at())
        }
        "rtm" => {
            let mut rtm = RtmGovernor::new(
                RtmConfig::paper(seed).with_workload_bounds(prep.bounds.0, prep.bounds.1),
            )
            .expect("valid config");
            run_experiment(
                &mut rtm,
                &mut replay,
                PlatformConfig::odroid_xu3_a15(),
                frames,
            );
            (rtm.exploration_phase_epochs(), rtm.converged_at())
        }
        other => unreachable!("unknown Table III cell {other}"),
    }
}

/// Folds Table III's per-methodology `(epochs, convergence)` pairs (in
/// [`TABLE3_LABELS`] order) into the result bundle.
pub(crate) fn table3_assemble(results: Vec<(u64, Option<u64>)>) -> Table3Result {
    let rows: Vec<Table3Row> = ["Multi-core DVFS control [20]", "Our approach"]
        .iter()
        .zip(&results)
        .map(
            |(method, &(exploration_epochs, convergence_epochs))| Table3Row {
                method: (*method).into(),
                exploration_epochs,
                convergence_epochs,
            },
        )
        .collect();
    let mut table = ComparisonTable::new(vec![
        "Methodology",
        "Time overhead (decision epochs)",
        "Greedy policy stable at",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.method.clone(),
            row.exploration_epochs.to_string(),
            row.convergence_epochs
                .map_or_else(|| "not converged".into(), |e| e.to_string()),
        ]);
    }
    Table3Result { rows, table }
}

/// The Fig. 3 experiment bundle: series plus headline statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// Predicted workload per frame (cycles).
    pub predicted: Series,
    /// Actual workload per frame (cycles).
    pub actual: Series,
    /// Average slack ratio `L` per frame.
    pub avg_slack: Series,
    /// Raw per-frame slack.
    pub frame_slack: Series,
    /// Mean relative misprediction over the first 100 frames (paper:
    /// ≈ 8 %).
    pub early_misprediction: f64,
    /// Mean relative misprediction after frame 100 (paper: ≈ 3 %).
    pub late_misprediction: f64,
    /// Frames whose error exceeds 15 % (the visible mispredictions).
    pub mispredicted_frames: Vec<usize>,
    /// The aligned CSV document for plotting.
    pub csv: String,
}

impl Fig3Result {
    /// The headline statistics as campaign metrics:
    /// `early_misprediction`, `late_misprediction` and the count of
    /// `mispredicted_frames` (un-keyed: Fig. 3 has one cell).
    #[must_use]
    pub fn metrics(&self) -> CellMetrics {
        vec![
            ("early_misprediction".into(), self.early_misprediction),
            ("late_misprediction".into(), self.late_misprediction),
            (
                "mispredicted_frames".into(),
                self.mispredicted_frames.len() as f64,
            ),
        ]
    }
}

/// **Fig. 3** — workload misprediction for MPEG4 at 24 fps (γ = 0.6)
/// and the learning impact on average slack (Section III-B), with the
/// execution policy read from `QGOV_WORKERS`.
#[must_use]
pub fn run_fig3(seed: u64, frames: u64) -> Fig3Result {
    run_fig3_with(seed, frames, &RunnerConfig::from_env())
}

/// **Fig. 3** under an explicit [`RunnerConfig`] (a single-cell batch —
/// it parallelises only across invocations). The preset scripts a
/// scene change at frame 90, reproducing the paper's mid-exploitation
/// misprediction burst.
#[must_use]
pub fn run_fig3_with(seed: u64, frames: u64, runner: &RunnerConfig) -> Fig3Result {
    let prep = svga_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(FIG3_LABELS, &[seed], &[frames], |label, seed, frames| {
        fig3_cell(label, &prep, seed, frames)
    });
    fig3_assemble(batch.run(runner))
}

/// Fig. 3's single cell.
pub(crate) const FIG3_LABELS: &[&str] = &["rtm"];

/// Records MPEG4 SVGA at 24 fps (with the scripted scene change) for
/// one seed: the workload of Fig. 3 and of the smoothing ablation.
pub(crate) fn svga_prepare(seed: u64, frames: u64) -> TracePrep {
    TracePrep::record(&mut VideoDecoderModel::mpeg4_svga_24fps(seed).with_frames(frames))
}

/// Runs Fig. 3's RTM cell, returning the full epoch history (the
/// telemetry the series are built from — this cell needs
/// [`HistoryMode::Full`], the config default).
pub(crate) fn fig3_cell(
    label: &str,
    prep: &TracePrep,
    seed: u64,
    frames: u64,
) -> Vec<qgov_core::EpochRecord> {
    assert_eq!(label, "rtm", "unknown Fig. 3 cell {label}");
    let mut rtm =
        RtmGovernor::new(RtmConfig::paper(seed).with_workload_bounds(prep.bounds.0, prep.bounds.1))
            .expect("valid config");
    let mut replay = prep.trace.clone();
    run_experiment(
        &mut rtm,
        &mut replay,
        PlatformConfig::odroid_xu3_a15(),
        frames,
    );
    rtm.history().to_vec()
}

/// Folds Fig. 3's epoch history into the series bundle.
pub(crate) fn fig3_assemble(cells: Vec<Vec<qgov_core::EpochRecord>>) -> Fig3Result {
    let history = cells.into_iter().next().expect("one cell");

    // Epoch 0 has no prediction yet; start the series at epoch 1.
    let predicted: Vec<f64> = history[1..]
        .iter()
        .map(|r| r.predicted_total_cycles)
        .collect();
    let actual: Vec<f64> = history[1..].iter().map(|r| r.actual_total_cycles).collect();
    let avg_slack: Vec<f64> = history[1..].iter().map(|r| r.avg_slack).collect();
    let frame_slack: Vec<f64> = history[1..].iter().map(|r| r.frame_slack).collect();

    let stats = MispredictionStats::from_series(&predicted, &actual);
    let split = 100.min(stats.len().saturating_sub(1)).max(1);
    let early = stats.windowed_relative_error(0, split);
    let late = if stats.len() > split {
        stats.windowed_relative_error(split, stats.len())
    } else {
        early
    };

    let predicted = Series::from_ys("predicted_cc", &predicted);
    let actual = Series::from_ys("actual_cc", &actual);
    let avg_slack_s = Series::from_ys("avg_slack", &avg_slack);
    let frame_slack_s = Series::from_ys("frame_slack", &frame_slack);
    let csv = Series::to_csv_aligned(
        "frame",
        &[&predicted, &actual, &avg_slack_s, &frame_slack_s],
    );
    Fig3Result {
        predicted,
        actual,
        avg_slack: avg_slack_s,
        frame_slack: frame_slack_s,
        early_misprediction: early,
        late_misprediction: late,
        mispredicted_frames: stats.mispredicted_frames(0.15),
        csv,
    }
}

/// One configuration's outcome in an ablation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Stable metric key of the configuration (`n_3`, `gamma_0_6`,
    /// `per_core_share`): its cell label, slugged.
    pub key: String,
    /// Energy normalised to the Oracle on the same trace.
    pub normalized_energy: f64,
    /// Mean `Tᵢ/T_ref`.
    pub normalized_performance: f64,
    /// Deadline miss rate.
    pub miss_rate: f64,
    /// Convergence epoch, if reached.
    pub convergence_epochs: Option<u64>,
    /// Explorations until convergence (or total if never converged).
    pub explorations: u64,
    /// Mean relative workload misprediction over the run (the
    /// smoothing ablation only).
    pub misprediction: Option<f64>,
}

/// An ablation sweep bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// One row per configuration.
    pub rows: Vec<AblationRow>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

impl AblationResult {
    /// The result as campaign metrics: `normalized_energy`,
    /// `normalized_performance`, `miss_rate`, `explorations`, and where
    /// reported `convergence_epochs` and `misprediction`, keyed by each
    /// row's [`key`](AblationRow::key) (the Oracle reference has no
    /// row).
    #[must_use]
    pub fn metrics(&self) -> CellMetrics {
        let mut out = CellMetrics::new();
        for row in &self.rows {
            let key = &row.key;
            out.push((format!("normalized_energy/{key}"), row.normalized_energy));
            out.push((
                format!("normalized_performance/{key}"),
                row.normalized_performance,
            ));
            out.push((format!("miss_rate/{key}"), row.miss_rate));
            out.push((format!("explorations/{key}"), row.explorations as f64));
            if let Some(epochs) = row.convergence_epochs {
                out.push((format!("convergence_epochs/{key}"), epochs as f64));
            }
            if let Some(misprediction) = row.misprediction {
                out.push((format!("misprediction/{key}"), misprediction));
            }
        }
        out
    }
}

fn ablation_table(rows: &[AblationRow], label_header: &str) -> ComparisonTable {
    let mut table = ComparisonTable::new(vec![
        label_header,
        "Normalized energy",
        "Normalized performance",
        "Miss rate",
        "Convergence (epochs)",
        "Explorations",
    ]);
    for row in rows {
        table.add_row(vec![
            row.label.clone(),
            fmt2(row.normalized_energy),
            fmt2(row.normalized_performance),
            fmt_pct(row.miss_rate),
            row.convergence_epochs
                .map_or_else(|| "-".into(), |e| e.to_string()),
            row.explorations.to_string(),
        ]);
    }
    table
}

/// What one learning-governor ablation cell reports back: the run
/// report, the convergence epoch (if reached) and the exploration
/// count.
type AblationCell = (RunReport, Option<u64>, u64);

fn run_rtm_vs_oracle(
    config: RtmConfig,
    trace: &WorkloadTrace,
    bounds: (f64, f64),
    frames: u64,
) -> AblationCell {
    let mut rtm =
        RtmGovernor::new(config.with_workload_bounds(bounds.0, bounds.1)).expect("valid config");
    let mut replay = trace.clone();
    let report = run_experiment(
        &mut rtm,
        &mut replay,
        PlatformConfig::odroid_xu3_a15(),
        frames,
    )
    .report;
    let converged = rtm.converged_at();
    let explorations = explorations_of(&rtm);
    (report, converged, explorations)
}

fn oracle_reference(trace: &WorkloadTrace, frames: u64) -> RunReport {
    let mut oracle = OracleGovernor::from_trace(trace, &OppTable::odroid_xu3_a15(), 0.02);
    let mut replay = trace.clone();
    run_experiment(
        &mut oracle,
        &mut replay,
        PlatformConfig::odroid_xu3_a15(),
        frames,
    )
    .report
}

fn ablation_row(
    label: String,
    cell_label: &str,
    cell: &AblationCell,
    oracle: &RunReport,
) -> AblationRow {
    let (report, converged, explorations) = cell;
    AblationRow {
        label,
        key: slug(cell_label),
        normalized_energy: report.normalized_energy(oracle),
        normalized_performance: report.normalized_performance(),
        miss_rate: report.miss_rate(),
        convergence_epochs: *converged,
        explorations: *explorations,
        misprediction: None,
    }
}

/// **Ablation** — sweep of the state discretisation level count N, with
/// the execution policy read from `QGOV_WORKERS`.
#[must_use]
pub fn run_state_levels_ablation(seed: u64, frames: u64) -> AblationResult {
    run_state_levels_ablation_with(seed, frames, &RunnerConfig::from_env())
}

/// **Ablation** — state levels N under an explicit [`RunnerConfig`]
/// (the paper fixes N = 5 from pre-characterisation): more levels give
/// finer control but a larger Q-table that takes longer to learn. The
/// oracle reference and the five N configurations are six batch cells.
#[must_use]
pub fn run_state_levels_ablation_with(
    seed: u64,
    frames: u64,
    runner: &RunnerConfig,
) -> AblationResult {
    let prep = football_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(LEVELS_LABELS, &[seed], &[frames], |label, seed, frames| {
        levels_ablation_cell(label, &prep, seed, frames)
    });
    levels_ablation_assemble(batch.run(runner))
}

const LEVELS: [usize; 5] = [3, 4, 5, 7, 9];

/// The state-levels ablation's cells: the Oracle reference plus one
/// per N.
pub(crate) const LEVELS_LABELS: &[&str] = &["oracle", "n=3", "n=4", "n=5", "n=7", "n=9"];

/// Runs one state-levels cell (the Oracle or one N configuration).
pub(crate) fn levels_ablation_cell(
    label: &str,
    prep: &TracePrep,
    seed: u64,
    frames: u64,
) -> AblationCell {
    if label == "oracle" {
        return (oracle_reference(&prep.trace, frames), None, 0);
    }
    let index = LEVELS_LABELS
        .iter()
        .position(|&l| l == label)
        .unwrap_or_else(|| unreachable!("unknown state-levels cell {label}"));
    let n = LEVELS[index - 1];
    let mut config = RtmConfig::paper(seed);
    config.workload_levels = n;
    config.slack_levels = n;
    run_rtm_vs_oracle(config, &prep.trace, prep.bounds, frames)
}

/// Folds the state-levels cells (in [`LEVELS_LABELS`] order, Oracle
/// first) into the ablation bundle.
pub(crate) fn levels_ablation_assemble(mut cells: Vec<AblationCell>) -> AblationResult {
    let (oracle, _, _) = cells.remove(0);
    let rows: Vec<AblationRow> = LEVELS
        .iter()
        .zip(&LEVELS_LABELS[1..])
        .zip(&cells)
        .map(|((n, key), cell)| {
            ablation_row(format!("N = {n} ({} states)", n * n), key, cell, &oracle)
        })
        .collect();
    let table = ablation_table(&rows, "State levels");
    AblationResult { rows, table }
}

/// **Ablation** — sweep of the EWMA smoothing factor γ, with the
/// execution policy read from `QGOV_WORKERS`.
#[must_use]
pub fn run_smoothing_ablation(seed: u64, frames: u64) -> AblationResult {
    run_smoothing_ablation_with(seed, frames, &RunnerConfig::from_env())
}

/// **Ablation** — EWMA γ under an explicit [`RunnerConfig`] (the paper
/// determines γ = 0.6 experimentally): small γ lags workload changes,
/// large γ chases noise. The oracle reference and the five γ
/// configurations are six batch cells; each γ cell also reports its
/// mean relative misprediction.
#[must_use]
pub fn run_smoothing_ablation_with(
    seed: u64,
    frames: u64,
    runner: &RunnerConfig,
) -> AblationResult {
    let prep = svga_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(GAMMA_LABELS, &[seed], &[frames], |label, seed, frames| {
        smoothing_ablation_cell(label, &prep, seed, frames)
    });
    smoothing_ablation_assemble(batch.run(runner))
}

const GAMMAS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 0.95];

/// The smoothing ablation's cells: the Oracle reference plus one per
/// γ.
pub(crate) const GAMMA_LABELS: &[&str] = &[
    "oracle",
    "gamma=0.2",
    "gamma=0.4",
    "gamma=0.6",
    "gamma=0.8",
    "gamma=0.95",
];

/// Runs one smoothing cell; γ cells also report their mean relative
/// misprediction (needs [`HistoryMode::Full`], the config default).
pub(crate) fn smoothing_ablation_cell(
    label: &str,
    prep: &TracePrep,
    seed: u64,
    frames: u64,
) -> (AblationCell, f64) {
    if label == "oracle" {
        return ((oracle_reference(&prep.trace, frames), None, 0), 0.0);
    }
    let index = GAMMA_LABELS
        .iter()
        .position(|&l| l == label)
        .unwrap_or_else(|| unreachable!("unknown smoothing cell {label}"));
    let gamma = GAMMAS[index - 1];
    let mut config = RtmConfig::paper(seed);
    config.smoothing = gamma;
    let mut rtm = RtmGovernor::new(config.with_workload_bounds(prep.bounds.0, prep.bounds.1))
        .expect("valid config");
    let mut replay = prep.trace.clone();
    let report = run_experiment(
        &mut rtm,
        &mut replay,
        PlatformConfig::odroid_xu3_a15(),
        frames,
    )
    .report;
    // Misprediction over the whole run (epoch 0 has none).
    let history = rtm.history();
    let predicted: Vec<f64> = history[1..]
        .iter()
        .map(|r| r.predicted_total_cycles)
        .collect();
    let actual: Vec<f64> = history[1..].iter().map(|r| r.actual_total_cycles).collect();
    let stats = MispredictionStats::from_series(&predicted, &actual);
    let cell = (report, rtm.converged_at(), explorations_of(&rtm));
    (cell, stats.mean_relative_error())
}

/// Folds the smoothing cells (in [`GAMMA_LABELS`] order, Oracle first)
/// into the ablation bundle.
pub(crate) fn smoothing_ablation_assemble(mut cells: Vec<(AblationCell, f64)>) -> AblationResult {
    let ((oracle, _, _), _) = cells.remove(0);
    let rows: Vec<AblationRow> = GAMMAS
        .iter()
        .zip(&GAMMA_LABELS[1..])
        .zip(&cells)
        .map(|((gamma, key), (cell, misprediction))| AblationRow {
            misprediction: Some(*misprediction),
            ..ablation_row(format!("gamma = {gamma:.2}"), key, cell, &oracle)
        })
        .collect();
    let table = ablation_table(&rows, "EWMA smoothing");
    AblationResult { rows, table }
}

/// **Ablation** — shared versus per-core Q-tables, with the execution
/// policy read from `QGOV_WORKERS`.
#[must_use]
pub fn run_shared_table_ablation(seed: u64, frames: u64) -> AblationResult {
    run_shared_table_ablation_with(seed, frames, &RunnerConfig::from_env())
}

/// **Ablation** — the Section II-D claim that sharing one Q-table
/// across cores converges faster, under an explicit [`RunnerConfig`]:
/// the oracle reference, the two shared-table formulations and Ge &
/// Qiu's per-core independent tables are four batch cells.
#[must_use]
pub fn run_shared_table_ablation_with(
    seed: u64,
    frames: u64,
    runner: &RunnerConfig,
) -> AblationResult {
    let prep = football_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(SHARED_LABELS, &[seed], &[frames], |label, seed, frames| {
        shared_ablation_cell(label, &prep, seed, frames)
    });
    shared_ablation_assemble(batch.run(runner))
}

/// The shared-table ablation's cells, Oracle first.
pub(crate) const SHARED_LABELS: &[&str] = &["oracle", "cluster", "per-core-share", "geqiu"];

/// Runs one shared-table formulation cell.
pub(crate) fn shared_ablation_cell(
    label: &str,
    prep: &TracePrep,
    seed: u64,
    frames: u64,
) -> AblationCell {
    match label {
        "oracle" => (oracle_reference(&prep.trace, frames), None, 0),
        "cluster" => run_rtm_vs_oracle(RtmConfig::paper(seed), &prep.trace, prep.bounds, frames),
        "per-core-share" => {
            let mut config = RtmConfig::paper(seed);
            config.state_kind = StateKind::PerCoreShare;
            run_rtm_vs_oracle(config, &prep.trace, prep.bounds, frames)
        }
        "geqiu" => {
            let mut gov = GeQiuGovernor::new(GeQiuConfig::paper(seed));
            let mut replay = prep.trace.clone();
            let report = run_experiment(
                &mut gov,
                &mut replay,
                PlatformConfig::odroid_xu3_a15(),
                frames,
            )
            .report;
            (report, gov.converged_at(), gov.exploration_count())
        }
        other => unreachable!("unknown shared-table cell {other}"),
    }
}

/// Folds the shared-table cells (in [`SHARED_LABELS`] order, Oracle
/// first) into the ablation bundle.
pub(crate) fn shared_ablation_assemble(mut cells: Vec<AblationCell>) -> AblationResult {
    let (oracle, _, _) = cells.remove(0);
    let labels = [
        "Shared Q-table, cluster state",
        "Shared Q-table, round-robin per-core (Eq. 7)",
        "Per-core independent tables [20]",
    ];
    let rows: Vec<AblationRow> = labels
        .iter()
        .zip(&SHARED_LABELS[1..])
        .zip(&cells)
        .map(|((label, key), cell)| ablation_row((*label).into(), key, cell, &oracle))
        .collect();
    let table = ablation_table(&rows, "Formulation");
    AblationResult { rows, table }
}

/// Number of convergence windows a long-horizon run is folded into.
pub const LONG_HORIZON_WINDOWS: u64 = 10;

/// Shard length the long-horizon experiment records with for a given
/// horizon: a quarter of the run, clamped to `[64, 4096]` frames —
/// small runs still cross shard boundaries (exercising the streaming
/// path), long runs stay bounded at ~4096 resident frames however far
/// the horizon extends.
#[must_use]
pub fn long_horizon_shard_frames(frames: u64) -> usize {
    usize::try_from((frames / 4).clamp(64, 4096)).expect("clamped to 4096")
}

/// One governor's outcome in the long-horizon streaming comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LongHorizonRow {
    /// Methodology name.
    pub method: String,
    /// Energy normalised to the Linux ondemand run on the identical
    /// streamed trace (the Oracle needs the whole trace in memory, so
    /// it cannot referee a horizon whose point is never materialising
    /// one).
    pub normalized_energy: f64,
    /// Mean `Tᵢ/T_ref` over the whole run.
    pub normalized_performance: f64,
    /// Whole-run deadline miss rate.
    pub miss_rate: f64,
    /// Mean OPP index over the run.
    pub mean_opp: f64,
    /// Absolute ground-truth energy in joules.
    pub energy_joules: f64,
    /// Miss rate over the first convergence window (the learning
    /// phase, for the Q-governor).
    pub early_miss_rate: f64,
    /// Miss rate over the last convergence window (the exploited
    /// policy).
    pub late_miss_rate: f64,
    /// Windowed deadline-miss folds ([`LONG_HORIZON_WINDOWS`] windows;
    /// each mean is that window's miss rate).
    pub windowed_miss: Vec<WindowSummary>,
    /// Windowed `Tᵢ/T_ref` folds over the same windows.
    pub windowed_frame_time: Vec<WindowSummary>,
    /// Temporal-property verdicts, when the run carried the standard
    /// pack ([`run_long_horizon_monitored_with`]); `None` otherwise.
    pub monitor: Option<MonitorReport>,
}

/// The long-horizon experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct LongHorizonResult {
    /// One row per methodology (ondemand, conservative, proposed).
    pub rows: Vec<LongHorizonRow>,
    /// Rendered whole-run comparison table.
    pub table: ComparisonTable,
    /// Rendered convergence-over-time table: per window, each
    /// methodology's miss rate plus the proposed governor's mean
    /// `Tᵢ/T_ref`.
    pub windows_table: ComparisonTable,
    /// Frames replayed.
    pub frames: u64,
    /// Shard length the trace was streamed at.
    pub shard_frames: usize,
    /// Shard files the recording produced.
    pub shard_count: usize,
}

impl LongHorizonResult {
    /// The whole-run figures as campaign metrics: `normalized_energy`,
    /// `normalized_performance`, `miss_rate`, `mean_opp`,
    /// `energy_joules`, `early_miss_rate`, `late_miss_rate` and, when
    /// monitored, `monitor_violations`, keyed by methodology
    /// (`…/ondemand`).
    #[must_use]
    pub fn metrics(&self) -> CellMetrics {
        let mut out = CellMetrics::new();
        for (label, row) in LONG_HORIZON_LABELS.iter().zip(&self.rows) {
            out.push((format!("normalized_energy/{label}"), row.normalized_energy));
            out.push((
                format!("normalized_performance/{label}"),
                row.normalized_performance,
            ));
            out.push((format!("miss_rate/{label}"), row.miss_rate));
            out.push((format!("mean_opp/{label}"), row.mean_opp));
            out.push((format!("energy_joules/{label}"), row.energy_joules));
            out.push((format!("early_miss_rate/{label}"), row.early_miss_rate));
            out.push((format!("late_miss_rate/{label}"), row.late_miss_rate));
            if let Some(monitor) = &row.monitor {
                out.push((
                    format!("monitor_violations/{label}"),
                    monitor.violation_count() as f64,
                ));
            }
        }
        out
    }
}

/// **Long horizon** — the Q-learning governor versus the Linux
/// ondemand and conservative heuristics over a horizon streamed from
/// disk ([`ShardedTrace`]), under an explicit [`RunnerConfig`].
/// Designed for ≥ 100k frames: the trace never materialises in memory.
///
/// The workload (the H.264 football model looped to `frames` frames)
/// is recorded once into CSV shards on disk; every methodology cell
/// then streams its own [`ShardedTrace`] clone, so memory stays
/// bounded by one shard per live cell while the replay is
/// frame-identical across methodologies (and bit-identical to an
/// in-memory replay of the same recording — the streaming contract
/// `tests/long_horizon_streaming.rs` pins). Convergence over time is
/// reported as [`LONG_HORIZON_WINDOWS`] windowed miss-rate and
/// frame-time folds per methodology. The scratch shard directory is
/// removed before returning.
///
/// # Panics
///
/// Panics if the scratch directory cannot be written — a long-horizon
/// experiment without disk is meaningless.
#[must_use]
pub fn run_long_horizon_with(seed: u64, frames: u64, runner: &RunnerConfig) -> LongHorizonResult {
    long_horizon(seed, frames, runner, None)
}

/// [`run_long_horizon_with`] with the standard property pack attached
/// to every methodology cell: each governor runs under the monitors
/// [`standard_pack`] builds for its label, and the verdicts surface in
/// each row's [`monitor`](LongHorizonRow::monitor) field (and in the
/// underlying [`RunReport`]s). Monitoring never perturbs the runs —
/// every metric is bit-identical to the unmonitored experiment.
#[must_use]
pub fn run_long_horizon_monitored_with(
    seed: u64,
    frames: u64,
    runner: &RunnerConfig,
    pack: &PackConfig,
) -> LongHorizonResult {
    long_horizon(seed, frames, runner, Some(pack))
}

/// The long-horizon grid for one seed, optionally monitored.
fn long_horizon(
    seed: u64,
    frames: u64,
    runner: &RunnerConfig,
    pack: Option<&PackConfig>,
) -> LongHorizonResult {
    let prep = long_horizon_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(
        LONG_HORIZON_LABELS,
        &[seed],
        &[frames],
        |label, seed, frames| long_horizon_cell(label, &prep, seed, frames, pack),
    );
    let reports = batch.run(runner);
    long_horizon_assemble(&prep, frames, reports)
}

/// The long-horizon comparison's methodology cells, in row order.
pub(crate) const LONG_HORIZON_LABELS: &[&str] = &["ondemand", "conservative", "rtm"];

/// How many recent [`qgov_core::EpochRecord`]s the long-horizon RTM
/// retains: nothing reads its history, so the run keeps only a
/// bounded diagnostic tail instead of growing O(frames) memory — the
/// [`HistoryMode::LastN`] path CI's 20k-frame smoke exercises.
pub(crate) const LONG_HORIZON_HISTORY: usize = 1024;

/// The long-horizon experiment's per-seed preparation: the workload
/// recorded once into CSV shards on a private scratch directory, which
/// lives as long as this value (dropping it removes the directory).
#[derive(Debug)]
pub(crate) struct LongHorizonPrep {
    /// Keeps the scratch directory alive for the replaying cells; the
    /// field is the RAII guard itself, never read.
    _dir: ScratchDir,
    trace: ShardedTrace,
    bounds: (f64, f64),
    shard_frames: usize,
    shard_count: usize,
}

/// Records the long-horizon workload (the H.264 football model looped
/// to `frames` frames) into scratch shards for streamed replay.
pub(crate) fn long_horizon_prepare(seed: u64, frames: u64) -> LongHorizonPrep {
    let shard_frames = long_horizon_shard_frames(frames);
    // A scratch recording unique to this preparation (results never
    // depend on the directory name), removed when the prep drops.
    let dir = ScratchDir::unique(&format!("qgov-long-horizon-{seed}-{frames}"));

    let mut app = VideoDecoderModel::h264_football_15fps(seed).with_frames(frames);
    let trace = ShardedTrace::record(&mut app, dir.path(), frames, shard_frames)
        .expect("long-horizon scratch recording must be writable");
    let bounds = trace.workload_bounds();
    let shard_count = trace.shard_count();
    LongHorizonPrep {
        _dir: dir,
        trace,
        bounds,
        shard_frames,
        shard_count,
    }
}

/// Runs one long-horizon methodology cell on its own streamed replay
/// clone, with an optional standard property pack attached (the pack is
/// built per cell, keyed by the governor label).
pub(crate) fn long_horizon_cell(
    label: &str,
    prep: &LongHorizonPrep,
    seed: u64,
    frames: u64,
    pack: Option<&PackConfig>,
) -> RunReport {
    let config = PlatformConfig::odroid_xu3_a15();
    let mut replay = prep.trace.clone();
    let mut gov: Box<dyn Governor> = match label {
        "ondemand" => Box::new(OndemandGovernor::linux_default()),
        "conservative" => Box::new(ConservativeGovernor::linux_default()),
        "rtm" => Box::new(
            RtmGovernor::new(
                RtmConfig::paper(seed)
                    .with_workload_bounds(prep.bounds.0, prep.bounds.1)
                    .with_history(HistoryMode::LastN(LONG_HORIZON_HISTORY)),
            )
            .expect("paper config is valid"),
        ),
        other => unreachable!("unknown long-horizon cell {other}"),
    };
    match pack {
        Some(cfg) => {
            let mut monitors = standard_pack(label, cfg);
            run_experiment_monitored(gov.as_mut(), &mut replay, config, frames, &mut monitors)
                .report
        }
        None => run_experiment(gov.as_mut(), &mut replay, config, frames).report,
    }
}

/// Folds the long-horizon methodology reports (in
/// [`LONG_HORIZON_LABELS`] order) into the result bundle.
pub(crate) fn long_horizon_assemble(
    prep: &LongHorizonPrep,
    frames: u64,
    reports: Vec<RunReport>,
) -> LongHorizonResult {
    let shard_frames = prep.shard_frames;
    let shard_count = prep.shard_count;
    let baseline = reports.first().expect("ondemand cell present").clone();

    let labels = [
        "Linux Ondemand [5]",
        "Linux Conservative",
        "Proposed (Q-learning RTM)",
    ];
    let rows: Vec<LongHorizonRow> = labels
        .iter()
        .zip(&reports)
        .map(|(method, report)| {
            let mut miss = WindowedStats::spanning(frames, LONG_HORIZON_WINDOWS);
            let mut frame_time = WindowedStats::spanning(frames, LONG_HORIZON_WINDOWS);
            for stat in report.frame_stats() {
                miss.push(if stat.met_deadline { 0.0 } else { 1.0 });
                frame_time.push(stat.frame_time.ratio(report.period()));
            }
            let windowed_miss = miss.into_windows();
            let windowed_frame_time = frame_time.into_windows();
            LongHorizonRow {
                method: (*method).into(),
                normalized_energy: report.normalized_energy(&baseline),
                normalized_performance: report.normalized_performance(),
                miss_rate: report.miss_rate(),
                mean_opp: report.mean_opp(),
                energy_joules: report.total_energy().as_joules(),
                early_miss_rate: windowed_miss.first().map_or(0.0, |w| w.mean),
                late_miss_rate: windowed_miss.last().map_or(0.0, |w| w.mean),
                windowed_miss,
                windowed_frame_time,
                monitor: report.monitor_report().cloned(),
            }
        })
        .collect();

    let mut table = ComparisonTable::new(vec![
        "Methodology",
        "Normalized energy",
        "Normalized performance",
        "Miss rate",
        "Early miss (first window)",
        "Late miss (last window)",
        "Mean OPP",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.method.clone(),
            fmt2(row.normalized_energy),
            fmt2(row.normalized_performance),
            fmt_pct(row.miss_rate),
            fmt_pct(row.early_miss_rate),
            fmt_pct(row.late_miss_rate),
            format!("{:.1}", row.mean_opp),
        ]);
    }

    let mut window_headers = vec!["Window (frames)".to_owned()];
    window_headers.extend(rows.iter().map(|r| format!("{} miss", r.method)));
    window_headers.push("Proposed T/T_ref".to_owned());
    let mut windows_table = ComparisonTable::new(window_headers);
    let window_count = rows.first().map_or(0, |r| r.windowed_miss.len());
    for w in 0..window_count {
        let span = &rows[0].windowed_miss[w];
        let mut cells = vec![format!("{}..{}", span.start, span.start + span.len)];
        cells.extend(rows.iter().map(|r| fmt_pct(r.windowed_miss[w].mean)));
        let rtm = rows.last().expect("three rows");
        cells.push(fmt2(rtm.windowed_frame_time[w].mean));
        windows_table.add_row(cells);
    }

    LongHorizonResult {
        rows,
        table,
        windows_table,
        frames,
        shard_frames,
        shard_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Short-run smoke tests; the full-length shape assertions live in
    // the workspace integration tests and the bench targets, and the
    // serial/parallel bit-identity in `tests/runner_determinism.rs`.

    #[test]
    fn table1_rows_are_complete_and_normalised() {
        let result = run_table1(1, 300);
        assert_eq!(result.rows.len(), 4);
        let oracle = result
            .rows
            .iter()
            .find(|r| r.method.contains("Oracle"))
            .unwrap();
        assert!((oracle.normalized_energy - 1.0).abs() < 1e-9);
        for row in &result.rows {
            assert!(row.normalized_energy >= 0.99, "{row:?}");
            assert!(row.normalized_performance > 0.0, "{row:?}");
        }
        assert!(result.table.render().contains("Proposed"));
    }

    #[test]
    fn table2_reports_all_three_apps() {
        let result = run_table2(1, 400);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.epd_explorations > 0, "{row:?}");
            assert!(row.upd_explorations > 0, "{row:?}");
        }
    }

    #[test]
    fn fig3_produces_aligned_series() {
        let result = run_fig3(1, 150);
        assert_eq!(result.predicted.len(), result.actual.len());
        assert_eq!(result.predicted.len(), 149);
        assert!(result.early_misprediction > 0.0);
        assert!(result.csv.starts_with("frame,predicted_cc,actual_cc"));
    }

    #[test]
    fn table3_produces_both_methods() {
        let result = run_table3(1, 300);
        assert_eq!(result.rows.len(), 2);
        assert!(result.table.render().contains("Our approach"));
    }

    #[test]
    fn explicit_runner_config_matches_default_path() {
        let serial = run_table3_with(1, 200, &RunnerConfig::serial());
        let parallel = run_table3_with(1, 200, &RunnerConfig::with_workers(2));
        assert_eq!(serial.rows, parallel.rows);
    }

    #[test]
    fn long_horizon_rows_windows_and_normalisation() {
        let result = run_long_horizon_with(1, 400, &RunnerConfig::serial());
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.frames, 400);
        // 400 frames at 100 per shard: the streaming path crossed
        // shard boundaries.
        assert_eq!(result.shard_frames, 100);
        assert_eq!(result.shard_count, 4);
        let ondemand = &result.rows[0];
        assert!((ondemand.normalized_energy - 1.0).abs() < 1e-9);
        for row in &result.rows {
            assert_eq!(row.windowed_miss.len(), LONG_HORIZON_WINDOWS as usize);
            assert_eq!(row.windowed_frame_time.len(), LONG_HORIZON_WINDOWS as usize);
            let total: u64 = row.windowed_miss.iter().map(|w| w.len).sum();
            assert_eq!(total, 400, "windows must tile the run exactly");
            assert!(row.normalized_performance > 0.0, "{row:?}");
        }
        assert!(result.table.render().contains("Proposed"));
        assert!(result.windows_table.render().contains("0..40"));
    }

    #[test]
    fn long_horizon_serial_matches_parallel() {
        let serial = run_long_horizon_with(2, 300, &RunnerConfig::serial());
        let parallel = run_long_horizon_with(2, 300, &RunnerConfig::with_workers(3));
        assert_eq!(serial.rows, parallel.rows);
    }

    #[test]
    fn long_horizon_shard_frames_is_clamped() {
        assert_eq!(long_horizon_shard_frames(100), 64);
        assert_eq!(long_horizon_shard_frames(400), 100);
        assert_eq!(long_horizon_shard_frames(100_000), 4096);
        assert_eq!(long_horizon_shard_frames(10_000_000), 4096);
    }
}
