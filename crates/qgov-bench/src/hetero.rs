//! Heterogeneous-platform experiments: big.LITTLE placement and mesh
//! scaling.
//!
//! The paper's evaluation runs on one V-F island of the ODROID-XU3.
//! These experiments extend it to the *chip*: the same Q-learning RTM,
//! instantiated per cluster and coordinated by greedy task migration
//! ([`ManyCoreRtm`]), against static placements on the full
//! big.LITTLE part, and a weak-scaling study on synthetic homogeneous
//! meshes.
//!
//! * [`run_biglittle_with`] — a scaled H.264 decode (too heavy for the A7
//!   quad alone, comfortably feasible on the A15 quad) under three
//!   placements: everything on big, everything on LITTLE, and the
//!   learned migrating placement. The headline: learned migration
//!   matches big-only's deadline behaviour at lower energy, because
//!   steady frames drift to the LITTLE cores.
//! * [`run_mesh_scaling_with`] — one [`ManyCoreRtm`] across 4/8/16
//!   identical clusters with a workload scaled to the cluster count:
//!   per-cluster energy should stay flat as the chip grows (weak
//!   scaling of the per-cluster learning loop).
//!
//! Both take an explicit [`RunnerConfig`] and have `*_monitored_with`
//! variants like the experiments in [`crate::experiments`], and sweep
//! across seeds through [`crate::sweep`]; recorded baselines live in
//! `EXPERIMENTS.md`.

use crate::experiments::TracePrep;
use crate::manycore::{
    run_manycore_experiment, run_manycore_experiment_monitored, ManyCoreOutcome,
};
use crate::runner::{ExperimentBatch, RunnerConfig};
use crate::worklist::{slug, CellMetrics};
use qgov_core::{ManyCoreRtm, RtmConfig, RtmGovernor};
use qgov_governors::{Governor, ManyCoreGovernor, PerClusterGovernors, PowersaveGovernor};
use qgov_metrics::{standard_pack, ComparisonTable, MonitorReport, PackConfig, RunReport};
use qgov_sim::{ClusterConfig, PlatformConfig, Topology};
use qgov_units::{Cycles, SimTime};
use qgov_workloads::{capacity_shares, Application, SyntheticWorkload, VideoDecoderModel};

fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// One cell of a many-core experiment grid: the chip-level report plus
/// the coordinator's migration count and final work shares.
#[derive(Debug, Clone)]
pub(crate) struct ManyCoreCell {
    pub(crate) report: RunReport,
    pub(crate) migrations: u64,
    pub(crate) shares: Vec<f64>,
}

/// Runs one many-core cell, optionally with the standard temporal
/// property pack for `label` riding along as a chip-level monitor.
fn run_cell(
    gov: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    shares: &[f64],
    label: &str,
    pack: Option<&PackConfig>,
) -> ManyCoreOutcome {
    match pack {
        Some(cfg) => {
            let mut monitors = standard_pack(label, cfg);
            run_manycore_experiment_monitored(gov, app, topology, frames, shares, &mut monitors)
        }
        None => run_manycore_experiment(gov, app, topology, frames, shares),
    }
}

/// Per-cluster compute capacities (cores × top frequency in GHz) — the
/// seed for [`capacity_shares`] on a heterogeneous topology.
fn cluster_capacities(clusters: &[ClusterConfig]) -> Vec<f64> {
    clusters
        .iter()
        .map(|c| c.platform.cores as f64 * c.platform.opp_table.max_freq().as_ghz())
        .collect()
}

// ---------------------------------------------------------------------------
// big.LITTLE placement
// ---------------------------------------------------------------------------

/// big.LITTLE placement cells, in row order. `big-only` is the
/// normalisation reference.
pub(crate) const BIGLITTLE_LABELS: &[&str] = &["big-only", "little-only", "rtm-migrate"];

/// The big.LITTLE workload: the H.264 football sequence scaled up to a
/// chip-sized decode (135 Mcycles per slot × 3 slots ≈ 410 Mcycles per
/// 66.7 ms epoch). Sized so the A7 quad alone cannot hold the deadline
/// (mean demand exceeds its 373 Mcycle top-frequency capacity) while
/// the A15 quad (533 Mcycles) can — the regime where placement
/// actually matters.
#[must_use]
pub fn biglittle_app(seed: u64, frames: u64) -> VideoDecoderModel {
    let mut params = VideoDecoderModel::h264_football_15fps(seed)
        .params()
        .clone();
    params.name = "h264-chip".into();
    params.base_cycles = Cycles::from_mcycles(135);
    params.frames = frames;
    VideoDecoderModel::new(params).expect("scaled preset is valid")
}

/// Records the big.LITTLE workload for one seed.
pub(crate) fn biglittle_prepare(seed: u64, frames: u64) -> TracePrep {
    TracePrep::record(&mut biglittle_app(seed, frames))
}

/// Runs one big.LITTLE placement cell against the prepared trace, with
/// the standard temporal property pack optionally monitoring the
/// chip-level epoch stream.
pub(crate) fn biglittle_cell(
    label: &str,
    prep: &TracePrep,
    seed: u64,
    frames: u64,
    pack: Option<&PackConfig>,
) -> ManyCoreCell {
    let topology = Topology::odroid_xu3_biglittle();
    let mut replay = prep.trace.clone();
    let rtm = |seed: u64| -> Box<dyn Governor> {
        Box::new(
            RtmGovernor::new(
                RtmConfig::paper(seed).with_workload_bounds(prep.bounds.0, prep.bounds.1),
            )
            .expect("paper config is valid"),
        )
    };
    match label {
        "big-only" | "little-only" => {
            let idle: Box<dyn Governor> = Box::new(PowersaveGovernor::new());
            let (agents, shares) = if label == "big-only" {
                (vec![rtm(seed), idle], [1.0, 0.0])
            } else {
                (vec![idle, rtm(seed)], [0.0, 1.0])
            };
            let mut gov = PerClusterGovernors::new(label, agents);
            let out = run_cell(
                &mut gov,
                &mut replay,
                topology,
                frames,
                &shares,
                label,
                pack,
            );
            ManyCoreCell {
                report: out.report,
                migrations: 0,
                shares: out.shares,
            }
        }
        "rtm-migrate" => {
            let mut shares = vec![0.0; topology.cluster_count()];
            capacity_shares(&cluster_capacities(&topology.clusters), &mut shares);
            let mut gov = ManyCoreRtm::paper(seed, topology.cluster_count(), prep.bounds)
                .expect("paper config is valid");
            let out = run_cell(
                &mut gov,
                &mut replay,
                topology,
                frames,
                &shares,
                label,
                pack,
            );
            ManyCoreCell {
                report: out.report,
                migrations: gov.migrations(),
                shares: out.shares,
            }
        }
        other => unreachable!("unknown big.LITTLE cell {other}"),
    }
}

/// One placement's outcome in the big.LITTLE comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BigLittleRow {
    /// Placement label.
    pub placement: String,
    /// Absolute chip energy in joules.
    pub energy_joules: f64,
    /// Energy normalised to the big-only run.
    pub normalized_energy: f64,
    /// Deadline miss rate.
    pub miss_rate: f64,
    /// Joules per deadline-met frame (energy divided by met frames; the
    /// divisor clamps at one so an all-missing run reports its total
    /// energy rather than dividing by zero).
    pub energy_per_met_frame: f64,
    /// Share moves the coordinator performed (zero for static
    /// placements).
    pub migrations: u64,
    /// Final share of the work on the big cluster.
    pub final_big_share: f64,
    /// Temporal-property verdicts when the run was monitored
    /// ([`run_biglittle_monitored_with`]); `None` otherwise.
    pub monitor: Option<MonitorReport>,
}

/// The big.LITTLE placement comparison bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct BigLittleResult {
    /// One row per placement, in big-only, LITTLE-only, learned order.
    pub rows: Vec<BigLittleRow>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

impl BigLittleResult {
    /// The result as campaign metrics: `normalized_energy`,
    /// `miss_rate`, `energy_joules`, `energy_per_met_frame`,
    /// `migrations` and `final_big_share`, keyed by placement
    /// (`…/rtm_migrate`).
    #[must_use]
    pub fn metrics(&self) -> CellMetrics {
        let mut out = CellMetrics::new();
        for (label, row) in BIGLITTLE_LABELS.iter().zip(&self.rows) {
            let key = slug(label);
            out.push((format!("normalized_energy/{key}"), row.normalized_energy));
            out.push((format!("miss_rate/{key}"), row.miss_rate));
            out.push((format!("energy_joules/{key}"), row.energy_joules));
            out.push((
                format!("energy_per_met_frame/{key}"),
                row.energy_per_met_frame,
            ));
            out.push((format!("migrations/{key}"), row.migrations as f64));
            out.push((format!("final_big_share/{key}"), row.final_big_share));
        }
        out
    }
}

fn placement_label(name: &str) -> String {
    match name {
        "big-only" => "Big-only (A15 quad)".into(),
        "little-only" => "LITTLE-only (A7 quad)".into(),
        "rtm-migrate" => "Learned migration (proposed)".into(),
        other => other.into(),
    }
}

/// Folds the placement cells (in `BIGLITTLE_LABELS` order) into the
/// result bundle.
pub(crate) fn biglittle_assemble(cells: Vec<ManyCoreCell>) -> BigLittleResult {
    let reference = cells.first().expect("big-only cell present").report.clone();
    let rows: Vec<BigLittleRow> = cells
        .iter()
        .map(|cell| {
            let r = &cell.report;
            let met = (r.frames() - r.deadline_misses()).max(1);
            BigLittleRow {
                placement: placement_label(r.governor()),
                energy_joules: r.total_energy().as_joules(),
                normalized_energy: r.normalized_energy(&reference),
                miss_rate: r.miss_rate(),
                energy_per_met_frame: r.total_energy().as_joules() / met as f64,
                migrations: cell.migrations,
                final_big_share: cell.shares.first().copied().unwrap_or(0.0),
                monitor: r.monitor_report().cloned(),
            }
        })
        .collect();

    let mut table = ComparisonTable::new(vec![
        "Placement",
        "Energy (J)",
        "Normalized energy",
        "Miss rate",
        "J / met frame",
        "Migrations",
        "Final big share",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.placement.clone(),
            format!("{:.1}", row.energy_joules),
            fmt2(row.normalized_energy),
            fmt_pct(row.miss_rate),
            format!("{:.3}", row.energy_per_met_frame),
            row.migrations.to_string(),
            fmt2(row.final_big_share),
        ]);
    }
    BigLittleResult { rows, table }
}

/// **big.LITTLE placement** under an explicit [`RunnerConfig`]: all
/// three placements replay the identical recorded trace on the same
/// two-cluster topology; energy is normalised to the big-only run.
#[must_use]
pub fn run_biglittle_with(seed: u64, frames: u64, runner: &RunnerConfig) -> BigLittleResult {
    biglittle(seed, frames, runner, None)
}

/// **big.LITTLE placement** with the standard temporal property pack
/// monitoring every placement's chip-level epoch stream; verdicts land
/// on each row's [`monitor`](BigLittleRow::monitor) field.
#[must_use]
pub fn run_biglittle_monitored_with(
    seed: u64,
    frames: u64,
    runner: &RunnerConfig,
    pack: &PackConfig,
) -> BigLittleResult {
    biglittle(seed, frames, runner, Some(pack))
}

/// The big.LITTLE grid for one seed, optionally monitored.
fn biglittle(
    seed: u64,
    frames: u64,
    runner: &RunnerConfig,
    pack: Option<&PackConfig>,
) -> BigLittleResult {
    let prep = biglittle_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(
        BIGLITTLE_LABELS,
        &[seed],
        &[frames],
        |label, seed, frames| biglittle_cell(label, &prep, seed, frames, pack),
    );
    biglittle_assemble(batch.run(runner))
}

// ---------------------------------------------------------------------------
// Mesh weak scaling
// ---------------------------------------------------------------------------

/// Mesh sizes, in row order.
pub(crate) const MESH_LABELS: &[&str] = &["mesh-4", "mesh-8", "mesh-16"];

fn mesh_size(label: &str) -> usize {
    match label {
        "mesh-4" => 4,
        "mesh-8" => 8,
        "mesh-16" => 16,
        other => unreachable!("unknown mesh cell {other}"),
    }
}

/// The mesh workload for `clusters` A15 quads: one thread per core,
/// ≈ 130 Mcycles per cluster per 40 ms frame (≈ 40 % utilisation at
/// the top OPP — room for the per-cluster agents to scale down), with
/// 10 % multiplicative noise.
#[must_use]
pub fn mesh_app(clusters: usize, seed: u64, frames: u64) -> SyntheticWorkload {
    SyntheticWorkload::constant(
        "mesh",
        Cycles::from_mcycles(130 * clusters as u64),
        SimTime::from_ms(40),
        frames,
        4 * clusters,
        seed,
    )
    .with_noise(0.1)
}

/// Records each mesh size's workload for one seed, in
/// `MESH_LABELS` order.
pub(crate) fn mesh_prepare(seed: u64, frames: u64) -> Vec<TracePrep> {
    MESH_LABELS
        .iter()
        .map(|label| TracePrep::record(&mut mesh_app(mesh_size(label), seed, frames)))
        .collect()
}

/// Runs one mesh-size cell: [`ManyCoreRtm`] on a homogeneous mesh with
/// an initially uniform placement, with the standard temporal property
/// pack optionally monitoring the chip-level epoch stream.
pub(crate) fn mesh_cell(
    label: &str,
    preps: &[TracePrep],
    seed: u64,
    frames: u64,
    pack: Option<&PackConfig>,
) -> ManyCoreCell {
    let idx = MESH_LABELS
        .iter()
        .position(|l| *l == label)
        .expect("known mesh label");
    let prep = &preps[idx];
    let clusters = mesh_size(label);
    let topology = Topology::homogeneous_mesh(clusters, PlatformConfig::odroid_xu3_a15());
    let mut gov = ManyCoreRtm::paper(seed, clusters, prep.bounds).expect("paper config is valid");
    let shares = vec![1.0 / clusters as f64; clusters];
    let mut replay = prep.trace.clone();
    let out = run_cell(
        &mut gov,
        &mut replay,
        topology,
        frames,
        &shares,
        label,
        pack,
    );
    ManyCoreCell {
        report: out.report,
        migrations: gov.migrations(),
        shares: out.shares,
    }
}

/// One mesh size's outcome in the scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshRow {
    /// Number of clusters.
    pub clusters: usize,
    /// Total cores on the chip.
    pub cores: usize,
    /// Absolute chip energy in joules.
    pub energy_joules: f64,
    /// Chip energy divided by the cluster count — flat under ideal
    /// weak scaling.
    pub energy_per_cluster: f64,
    /// Deadline miss rate.
    pub miss_rate: f64,
    /// Share moves performed by the coordinator.
    pub migrations: u64,
    /// Temporal-property verdicts when the run was monitored
    /// ([`run_mesh_scaling_monitored_with`]); `None` otherwise.
    pub monitor: Option<MonitorReport>,
}

/// The mesh scaling bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshScalingResult {
    /// One row per mesh size, in mesh-size order (4, 8, 16).
    pub rows: Vec<MeshRow>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

impl MeshScalingResult {
    /// The result as campaign metrics: `energy_joules`,
    /// `energy_per_cluster`, `miss_rate` and `migrations`, keyed by
    /// mesh size (`…/mesh_16`).
    #[must_use]
    pub fn metrics(&self) -> CellMetrics {
        let mut out = CellMetrics::new();
        for (label, row) in MESH_LABELS.iter().zip(&self.rows) {
            let key = slug(label);
            out.push((format!("energy_joules/{key}"), row.energy_joules));
            out.push((format!("energy_per_cluster/{key}"), row.energy_per_cluster));
            out.push((format!("miss_rate/{key}"), row.miss_rate));
            out.push((format!("migrations/{key}"), row.migrations as f64));
        }
        out
    }
}

/// Folds the mesh cells (in [`MESH_LABELS`] order) into the result
/// bundle.
pub(crate) fn mesh_assemble(cells: Vec<ManyCoreCell>) -> MeshScalingResult {
    let rows: Vec<MeshRow> = MESH_LABELS
        .iter()
        .zip(&cells)
        .map(|(label, cell)| {
            let clusters = mesh_size(label);
            let r = &cell.report;
            MeshRow {
                clusters,
                cores: 4 * clusters,
                energy_joules: r.total_energy().as_joules(),
                energy_per_cluster: r.total_energy().as_joules() / clusters as f64,
                miss_rate: r.miss_rate(),
                migrations: cell.migrations,
                monitor: r.monitor_report().cloned(),
            }
        })
        .collect();

    let mut table = ComparisonTable::new(vec![
        "Mesh",
        "Cores",
        "Energy (J)",
        "J / cluster",
        "Miss rate",
        "Migrations",
    ]);
    for row in &rows {
        table.add_row(vec![
            format!("{} clusters", row.clusters),
            row.cores.to_string(),
            format!("{:.1}", row.energy_joules),
            format!("{:.1}", row.energy_per_cluster),
            fmt_pct(row.miss_rate),
            row.migrations.to_string(),
        ]);
    }
    MeshScalingResult { rows, table }
}

/// **Mesh weak scaling** under an explicit [`RunnerConfig`]: one
/// [`ManyCoreRtm`] per mesh size against a workload scaled to the
/// cluster count, each size an independent batch cell.
#[must_use]
pub fn run_mesh_scaling_with(seed: u64, frames: u64, runner: &RunnerConfig) -> MeshScalingResult {
    mesh_scaling(seed, frames, runner, None)
}

/// **Mesh weak scaling** with the standard temporal property pack
/// monitoring every mesh size's chip-level epoch stream; verdicts land
/// on each row's [`monitor`](MeshRow::monitor) field.
#[must_use]
pub fn run_mesh_scaling_monitored_with(
    seed: u64,
    frames: u64,
    runner: &RunnerConfig,
    pack: &PackConfig,
) -> MeshScalingResult {
    mesh_scaling(seed, frames, runner, Some(pack))
}

/// The mesh-scaling grid for one seed, optionally monitored.
fn mesh_scaling(
    seed: u64,
    frames: u64,
    runner: &RunnerConfig,
    pack: Option<&PackConfig>,
) -> MeshScalingResult {
    let preps = mesh_prepare(seed, frames);
    let mut batch = ExperimentBatch::new();
    batch.expand_cells(MESH_LABELS, &[seed], &[frames], |label, seed, frames| {
        mesh_cell(label, &preps, seed, frames, pack)
    });
    mesh_assemble(batch.run(runner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunnerConfig;

    #[test]
    fn biglittle_rows_are_structured_and_static_placements_stay_put() {
        let result = run_biglittle_with(7, 90, &RunnerConfig::serial());
        assert_eq!(result.rows.len(), 3);
        let big = &result.rows[0];
        let little = &result.rows[1];
        let learned = &result.rows[2];
        assert_eq!(big.normalized_energy, 1.0);
        assert_eq!(big.final_big_share, 1.0);
        assert_eq!(big.migrations, 0);
        assert_eq!(little.final_big_share, 0.0);
        // The A7 quad cannot hold the scaled decode's deadlines.
        assert!(little.miss_rate > big.miss_rate);
        // Learned placement keeps a valid share split.
        assert!((0.0..=1.0).contains(&learned.final_big_share));
        assert!(learned.energy_joules > 0.0);
        assert!(result.table.render().contains("Learned migration"));
    }

    #[test]
    fn biglittle_sweep_aggregates_each_placement() {
        let sweep = crate::sweep::SeedSweep::base(1, 2);
        let cells = crate::sweep::sweep_metrics(
            crate::worklist::Family::BigLittle,
            &sweep,
            60,
            None,
            &RunnerConfig::serial(),
        );
        let summaries = qgov_metrics::fold_by_name(&cells);
        assert_eq!(summaries.len(), 3 * 6);
        assert!(summaries.iter().all(|(_, s)| s.n == 2));
        // big-only is the per-seed reference: exactly 1.0, zero spread.
        let (name, big) = &summaries[0];
        assert_eq!(name, "normalized_energy/big_only");
        assert_eq!((big.mean, big.std_dev), (1.0, 0.0));
    }

    #[test]
    fn mesh_scaling_runs_every_size() {
        let result = run_mesh_scaling_with(5, 40, &RunnerConfig::serial());
        assert_eq!(result.rows.len(), 3);
        assert_eq!(
            result.rows.iter().map(|r| r.clusters).collect::<Vec<_>>(),
            vec![4, 8, 16]
        );
        // Bigger chips burn more total energy on the scaled workload...
        assert!(result.rows[2].energy_joules > result.rows[0].energy_joules);
        // ...while per-cluster energy stays the same order of magnitude
        // (weak scaling; exploration noise keeps this loose).
        let ratio = result.rows[2].energy_per_cluster / result.rows[0].energy_per_cluster;
        assert!(ratio > 0.3 && ratio < 3.0, "ratio {ratio}");
    }
}
