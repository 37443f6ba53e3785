//! Journalable experiment work lists with stable cell identities.
//!
//! Every experiment family expands into independent
//! (governor × seed × frames) cells through
//! [`ExperimentBatch`](crate::runner::ExperimentBatch), and its result
//! reduces to one [`CellMetrics`] list per seed. This module turns
//! that enumeration into a **public, journalable work list**: a
//! [`WorkList`] names every campaign cell with a stable, re-derivable
//! ID (`"<family>/seed=<s>/frames=<f>"`, mirroring the batch labels of
//! [`ExperimentBatch::expand_cells`](crate::runner::ExperimentBatch::expand_cells)),
//! and [`WorkList::run_cell`] computes one cell's flat metric vector
//! deterministically and independently of every other cell.
//!
//! That pair of properties — stable IDs and independent, bit-reproducible
//! cells — is the resume seam the `qgov` campaign CLI builds on: a
//! journal only has to record *which IDs finished and what bits they
//! produced*, and a killed campaign can re-derive the remaining cells
//! from the config alone.
//!
//! Each cell runs its inner experiment **serially**
//! ([`RunnerConfig::serial`]); campaign-level parallelism fans out
//! *across* cells instead, so any worker count reproduces the serial
//! bits (the guarantee `tests/campaign_resume.rs` enforces end to end).
//!
//! ```
//! use qgov_bench::worklist::{Family, WorkList};
//!
//! let list = WorkList::new(Family::Table3, vec![1, 2], 80);
//! let cells = list.cells();
//! assert_eq!(cells.len(), 2);
//! assert_eq!(cells[0].id, "table3/seed=1/frames=80");
//! let metrics = list.run_cell(&cells[0]);
//! assert!(metrics.iter().any(|(name, _)| name == "exploration_epochs/rtm"));
//! ```

use crate::experiments::{
    self as x, FIG3_LABELS, GAMMA_LABELS, LEVELS_LABELS, LONG_HORIZON_LABELS, SHARED_LABELS,
    TABLE1_LABELS, TABLE2_LABELS, TABLE3_LABELS,
};
use crate::faultstorm::{self, standard_fault_schedule, FAULTSTORM_LABELS};
use crate::fleet::{run_fleet, FleetOutcome, FleetSpec};
use crate::hetero::{self, BIGLITTLE_LABELS, MESH_LABELS};
use crate::runner::RunnerConfig;
use crate::sweep::collect_grid;
use qgov_core::RtmConfig;
use qgov_metrics::PackConfig;
use qgov_sim::{PlatformConfig, SensorConfig};
use qgov_units::{Cycles, SimTime};
use qgov_workloads::SyntheticWorkload;

/// An experiment family a campaign can sweep — one variant per
/// `run_*` experiment bundle in [`crate::experiments`], plus the fleet
/// engine face ([`crate::fleet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Table I: normalised energy/performance per methodology.
    Table1,
    /// Table II: exploration counts per application × policy.
    Table2,
    /// Table III: learning overhead per methodology.
    Table3,
    /// Fig. 3: misprediction and slack for the proposed RTM.
    Fig3,
    /// N-levels state-discretisation ablation.
    StateLevels,
    /// EWMA-γ smoothing ablation.
    Smoothing,
    /// Shared-table ablation.
    SharedTable,
    /// Long-horizon streamed comparison (optionally monitored).
    LongHorizon,
    /// big.LITTLE placement comparison (static vs learned migration).
    BigLittle,
    /// Homogeneous-mesh weak scaling (4/8/16 clusters).
    MeshScaling,
    /// Fault storm: hardened vs naive RTM vs ondemand under the
    /// standard deterministic fault schedule.
    FaultStorm,
    /// Fleet engine: N lockstep RTM instances per cell.
    Fleet,
}

impl Family {
    /// Every family, in the order `qgov sweep` documents them.
    pub const ALL: &'static [Family] = &[
        Family::Table1,
        Family::Table2,
        Family::Table3,
        Family::Fig3,
        Family::StateLevels,
        Family::Smoothing,
        Family::SharedTable,
        Family::LongHorizon,
        Family::BigLittle,
        Family::MeshScaling,
        Family::FaultStorm,
        Family::Fleet,
    ];

    /// The family's stable name — the first component of every cell ID
    /// and the `family =` value in campaign configs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Table1 => "table1",
            Family::Table2 => "table2",
            Family::Table3 => "table3",
            Family::Fig3 => "fig3",
            Family::StateLevels => "state_levels",
            Family::Smoothing => "smoothing",
            Family::SharedTable => "shared_table",
            Family::LongHorizon => "long_horizon",
            Family::BigLittle => "biglittle",
            Family::MeshScaling => "mesh_scaling",
            Family::FaultStorm => "fault_storm",
            Family::Fleet => "fleet",
        }
    }

    /// Parses a family name (as produced by [`Family::name`],
    /// case-insensitive, surrounding whitespace ignored).
    #[must_use]
    pub fn parse(name: &str) -> Option<Family> {
        let name = name.trim().to_ascii_lowercase();
        Family::ALL.iter().copied().find(|f| f.name() == name)
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One schedulable campaign cell: its stable ID (journal key) and the
/// seed it runs under. The ID is a pure function of the work list's
/// configuration, so an interrupted campaign re-derives the same IDs
/// on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkCell {
    /// Stable identity: `"<family>/seed=<s>/frames=<f>[/fleet=<n>]"`.
    pub id: String,
    /// The campaign seed this cell runs under.
    pub seed: u64,
}

/// A cell's result: `(metric name, value)` pairs in a deterministic,
/// family-defined order. Names are stable across runs (they derive
/// from the experiment label constants, not display strings) and never
/// contain whitespace or `=` — the journal line grammar relies on
/// that.
pub type CellMetrics = Vec<(String, f64)>;

/// The enumerated cells of one experiment campaign: an experiment
/// [`Family`] crossed with a seed set at a fixed frame horizon. See
/// the [module docs](self) for the resume-seam contract.
#[derive(Debug, Clone)]
pub struct WorkList {
    family: Family,
    seeds: Vec<u64>,
    frames: u64,
    fleet: usize,
    pack: Option<PackConfig>,
}

impl WorkList {
    /// A work list over `seeds` at a `frames` horizon.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty or contains duplicates (duplicate
    /// seeds would collide on one journal ID), or when `frames` is
    /// zero.
    #[must_use]
    pub fn new(family: Family, seeds: Vec<u64>, frames: u64) -> Self {
        assert!(!seeds.is_empty(), "a work list needs at least one seed");
        assert!(frames > 0, "a work list needs a positive frame horizon");
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(
            unique.len() == seeds.len(),
            "duplicate seeds would collide on one cell ID"
        );
        WorkList {
            family,
            seeds,
            frames,
            fleet: 1,
            pack: None,
        }
    }

    /// Sets the fleet size (instances per cell) for [`Family::Fleet`];
    /// other families ignore it.
    ///
    /// # Panics
    ///
    /// Panics when `fleet` is zero.
    #[must_use]
    pub fn with_fleet(mut self, fleet: usize) -> Self {
        assert!(fleet >= 1, "a fleet cell needs at least one instance");
        self.fleet = fleet;
        self
    }

    /// Attaches the standard temporal-property pack to every
    /// [`Family::LongHorizon`] cell, adding `monitor_violations/...`
    /// metrics; other families ignore it. Monitoring never perturbs
    /// the measured metrics.
    #[must_use]
    pub fn with_monitor_pack(mut self, pack: PackConfig) -> Self {
        self.pack = Some(pack);
        self
    }

    /// The experiment family.
    #[must_use]
    pub fn family(&self) -> Family {
        self.family
    }

    /// The campaign seeds, in configuration order.
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The frame horizon every cell runs to.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Instances per [`Family::Fleet`] cell.
    #[must_use]
    pub fn fleet(&self) -> usize {
        self.fleet
    }

    /// The attached monitor pack, if any.
    #[must_use]
    pub fn pack(&self) -> Option<&PackConfig> {
        self.pack.as_ref()
    }

    /// Number of cells ( = number of seeds: each campaign cell runs a
    /// whole experiment bundle for one seed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// `true` when the list has no cells (unreachable through
    /// [`WorkList::new`], which rejects empty seed sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// The stable ID of this list's cell for `seed`.
    #[must_use]
    pub fn cell_id(&self, seed: u64) -> String {
        let base = format!("{}/seed={seed}/frames={}", self.family.name(), self.frames);
        if self.family == Family::Fleet {
            format!("{base}/fleet={}", self.fleet)
        } else {
            base
        }
    }

    /// Every cell, in seed order — the canonical campaign ordering
    /// reports and journals share.
    #[must_use]
    pub fn cells(&self) -> Vec<WorkCell> {
        self.seeds
            .iter()
            .map(|&seed| WorkCell {
                id: self.cell_id(seed),
                seed,
            })
            .collect()
    }

    /// Runs one cell to completion and returns its flat metrics, in
    /// the family's canonical order: the [`sweep`](crate::sweep)
    /// dispatch for this one seed under [`RunnerConfig::serial`], so the
    /// result is bit-identical however the *campaign* schedules cells —
    /// the property the journal's bit-exact resume contract rests on.
    #[must_use]
    pub fn run_cell(&self, cell: &WorkCell) -> CellMetrics {
        debug_assert_eq!(cell.id, self.cell_id(cell.seed), "foreign cell");
        let mut metrics = family_metrics(
            self.family,
            &[cell.seed],
            self.frames,
            self.fleet,
            self.pack.as_ref(),
            &RunnerConfig::serial(),
        );
        metrics.pop().expect("one seed, one cell")
    }
}

/// The one family dispatch: runs `family` for every seed through one
/// flattened seed × label job queue ([`collect_grid`]) and maps each
/// seed's assembled result through its `metrics()` — one
/// [`CellMetrics`] per seed, in seed order. `fleet` sizes
/// [`Family::Fleet`] cells; `pack` monitors [`Family::LongHorizon`]
/// cells; other families ignore both. [`Family::FaultStorm`] always
/// replays the standard schedule, never the `QGOV_FAULTS` override, so
/// journal cells re-derive bit-identically.
pub(crate) fn family_metrics(
    family: Family,
    seeds: &[u64],
    frames: u64,
    fleet: usize,
    pack: Option<&PackConfig>,
    runner: &RunnerConfig,
) -> Vec<CellMetrics> {
    // Every arm runs the same seed × label grid; only the family's
    // labels and prepare / cell / assemble providers differ.
    macro_rules! grid {
        ($labels:expr, $prepare:expr, $cell:expr, $assemble:expr $(,)?) => {
            collect_grid($labels, seeds, frames, runner, $prepare, $cell, $assemble)
        };
    }
    let metrics = match family {
        Family::Table1 => grid!(
            TABLE1_LABELS,
            x::football_prepare,
            x::table1_cell,
            |_, cells| x::table1_assemble(cells).metrics(),
        ),
        Family::Table2 => grid!(
            TABLE2_LABELS,
            x::table2_prepare,
            |label, prep: &Vec<_>, seed, frames| x::table2_cell(label, prep, seed, frames),
            |_, cells| x::table2_assemble(cells).metrics(),
        ),
        Family::Table3 => grid!(
            TABLE3_LABELS,
            x::table3_prepare,
            x::table3_cell,
            |_, cells| x::table3_assemble(cells).metrics(),
        ),
        Family::Fig3 => grid!(FIG3_LABELS, x::svga_prepare, x::fig3_cell, |_, cells| {
            x::fig3_assemble(cells).metrics()
        }),
        Family::StateLevels => grid!(
            LEVELS_LABELS,
            x::football_prepare,
            x::levels_ablation_cell,
            |_, cells| x::levels_ablation_assemble(cells).metrics(),
        ),
        Family::Smoothing => grid!(
            GAMMA_LABELS,
            x::svga_prepare,
            x::smoothing_ablation_cell,
            |_, cells| x::smoothing_ablation_assemble(cells).metrics(),
        ),
        Family::SharedTable => grid!(
            SHARED_LABELS,
            x::football_prepare,
            x::shared_ablation_cell,
            |_, cells| x::shared_ablation_assemble(cells).metrics(),
        ),
        Family::LongHorizon => grid!(
            LONG_HORIZON_LABELS,
            x::long_horizon_prepare,
            |label, prep, seed, frames| x::long_horizon_cell(label, prep, seed, frames, pack),
            |prep, reports| x::long_horizon_assemble(prep, frames, reports).metrics(),
        ),
        Family::BigLittle => grid!(
            BIGLITTLE_LABELS,
            hetero::biglittle_prepare,
            |label, prep, seed, frames| hetero::biglittle_cell(label, prep, seed, frames, None),
            |_, cells| hetero::biglittle_assemble(cells).metrics(),
        ),
        Family::MeshScaling => grid!(
            MESH_LABELS,
            hetero::mesh_prepare,
            |label, preps: &Vec<_>, seed, frames| {
                hetero::mesh_cell(label, preps, seed, frames, None)
            },
            |_, cells| hetero::mesh_assemble(cells).metrics(),
        ),
        Family::FaultStorm => {
            let plan = standard_fault_schedule(frames);
            let pack = PackConfig::paper();
            grid!(
                FAULTSTORM_LABELS,
                faultstorm::faultstorm_prepare,
                |label, prep, seed, frames| {
                    faultstorm::faultstorm_cell(label, prep, seed, frames, &plan, &pack)
                },
                |_, cells| faultstorm::faultstorm_assemble(frames, cells).metrics(),
            )
        }
        Family::Fleet => grid!(
            &["fleet"],
            |_, _| (),
            |_, (), seed, frames| fleet_cell(seed, frames, fleet),
            |(), mut outcomes| outcomes.remove(0).metrics(),
        ),
    };
    debug_assert!(
        metrics
            .iter()
            .flatten()
            .all(|(name, _)| !name.contains(['=', ' ', '\t', '\n'])),
        "metric names must stay journal-token safe"
    );
    metrics
}

/// One [`Family::Fleet`] cell: `fleet` lockstep instances seeded
/// `seed, seed + 1, …`, run serially.
fn fleet_cell(seed: u64, frames: u64, fleet: usize) -> FleetOutcome {
    let instance_seeds: Vec<u64> = (0..fleet as u64).map(|i| seed.wrapping_add(i)).collect();
    let spec = FleetSpec::uniform(
        &fleet_cell_config(0),
        &instance_seeds,
        &fleet_cell_platform(),
        frames,
        |s| Box::new(fleet_cell_app(s, frames)),
    );
    run_fleet(spec, &RunnerConfig::serial())
}

/// Reduces a label to a journal-safe metric key: ASCII-lowercased,
/// every run of non-alphanumeric characters collapsed to one `_`, and
/// leading/trailing `_` trimmed (`"gamma=0.2"` → `"gamma_0_2"`,
/// `"per-core-share"` → `"per_core_share"`).
#[must_use]
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_owned()
}

/// The fleet campaign cell's platform: the paper's A15 cluster with an
/// ideal sensor (matching the recorded fleet baselines).
#[must_use]
pub fn fleet_cell_platform() -> PlatformConfig {
    PlatformConfig {
        sensor: SensorConfig::ideal(),
        ..PlatformConfig::odroid_xu3_a15()
    }
}

/// The fleet campaign cell's per-instance RTM configuration.
#[must_use]
pub fn fleet_cell_config(seed: u64) -> RtmConfig {
    RtmConfig::paper(seed).with_workload_bounds(1e8, 1e9)
}

/// The fleet campaign cell's per-instance workload: the noisy
/// synthetic decode the fleet determinism suite pins.
#[must_use]
pub fn fleet_cell_app(seed: u64, frames: u64) -> SyntheticWorkload {
    SyntheticWorkload::constant(
        "campaign-fleet",
        Cycles::from_mcycles(120),
        SimTime::from_ms(40),
        frames,
        4,
        seed,
    )
    .with_noise(0.15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for &family in Family::ALL {
            assert_eq!(Family::parse(family.name()), Some(family));
            assert_eq!(Family::parse(&family.name().to_uppercase()), Some(family));
        }
        assert_eq!(Family::parse("  fig3 "), Some(Family::Fig3));
        assert_eq!(Family::parse("table9"), None);
    }

    #[test]
    fn cell_ids_are_stable_and_in_seed_order() {
        let list = WorkList::new(Family::Table1, vec![7, 3, 11], 250);
        let cells = list.cells();
        let ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "table1/seed=7/frames=250",
                "table1/seed=3/frames=250",
                "table1/seed=11/frames=250"
            ]
        );
        let fleet = WorkList::new(Family::Fleet, vec![5], 100).with_fleet(3);
        assert_eq!(fleet.cells()[0].id, "fleet/seed=5/frames=100/fleet=3");
    }

    #[test]
    fn slug_collapses_to_token_safe_keys() {
        assert_eq!(slug("gamma=0.2"), "gamma_0_2");
        assert_eq!(slug("per-core-share"), "per_core_share");
        assert_eq!(slug("n=3"), "n_3");
        assert_eq!(slug("Oracle (reference)"), "oracle_reference");
        assert_eq!(slug("__x__"), "x");
    }

    #[test]
    #[should_panic(expected = "duplicate seeds")]
    fn duplicate_seeds_are_rejected() {
        let _ = WorkList::new(Family::Table3, vec![1, 2, 1], 100);
    }

    #[test]
    fn fig3_cell_metrics_are_deterministic_and_named_stably() {
        let list = WorkList::new(Family::Fig3, vec![4], 120);
        let cell = &list.cells()[0];
        let a = list.run_cell(cell);
        let b = list.run_cell(cell);
        let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "early_misprediction",
                "late_misprediction",
                "mispredicted_frames"
            ]
        );
        for ((_, x), (_, y)) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "cell rerun must be bit-identical");
        }
    }

    #[test]
    fn fault_storm_cell_reports_recovery_metrics() {
        let list = WorkList::new(Family::FaultStorm, vec![11], 120);
        let metrics = list.run_cell(&list.cells()[0]);
        assert!(metrics
            .iter()
            .any(|(n, _)| n == "energy_joules/rtm_hardened"));
        assert!(metrics
            .iter()
            .any(|(n, _)| n == "post_drop_miss_rate/rtm_naive"));
        assert!(metrics
            .iter()
            .any(|(n, _)| n == "monitor_violations/ondemand"));
    }

    #[test]
    fn ablation_cells_key_metrics_by_the_non_oracle_labels() {
        let (seed, frames) = (3, 40);
        let serial = RunnerConfig::serial();
        let cases: [(Family, &[&str], x::AblationResult); 3] = [
            (
                Family::StateLevels,
                &["n_3", "n_4", "n_5", "n_7", "n_9"],
                x::run_state_levels_ablation_with(seed, frames, &serial),
            ),
            (
                Family::Smoothing,
                &[
                    "gamma_0_2",
                    "gamma_0_4",
                    "gamma_0_6",
                    "gamma_0_8",
                    "gamma_0_95",
                ],
                x::run_smoothing_ablation_with(seed, frames, &serial),
            ),
            (
                Family::SharedTable,
                &["cluster", "per_core_share", "geqiu"],
                x::run_shared_table_ablation_with(seed, frames, &serial),
            ),
        ];
        for (family, keys, typed) in cases {
            let list = WorkList::new(family, vec![seed], frames);
            let metrics = list.run_cell(&list.cells()[0]);
            let mut found: Vec<&str> = Vec::new();
            for (name, _) in &metrics {
                let (_, key) = name.split_once('/').expect("keyed metric");
                if !found.contains(&key) {
                    found.push(key);
                }
            }
            assert_eq!(found, keys, "{family}");
            let first = format!("normalized_energy/{}", keys[0]);
            let (_, value) = metrics.iter().find(|(n, _)| *n == first).unwrap();
            assert_eq!(
                value.to_bits(),
                typed.rows[0].normalized_energy.to_bits(),
                "{family}"
            );
        }
    }

    #[test]
    fn table2_cell_reports_the_pairwise_epd_upd_ratio() {
        let list = WorkList::new(Family::Table2, vec![5], 80);
        let metrics = list.run_cell(&list.cells()[0]);
        let value = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
        for app in ["mpeg4", "h264", "fft"] {
            let ratio = value(&format!("epd_explorations/{app}"))
                / value(&format!("upd_explorations/{app}"));
            assert_eq!(
                value(&format!("epd_upd_ratio/{app}")).to_bits(),
                ratio.to_bits()
            );
        }
    }

    #[test]
    fn table3_cell_reports_per_method_metrics() {
        let list = WorkList::new(Family::Table3, vec![2], 120);
        let metrics = list.run_cell(&list.cells()[0]);
        assert!(metrics.iter().any(|(n, _)| n == "exploration_epochs/geqiu"));
        assert!(metrics.iter().any(|(n, _)| n == "exploration_epochs/rtm"));
    }
}
