//! Multi-seed sweeps: every experiment family run across a seed set,
//! its per-seed [`CellMetrics`] folded by metric name into
//! `mean ± σ (n)` summaries.
//!
//! The paper reports single-run tables, but a Q-learning governor is
//! stochastic in its exploration draws: Table II's EPD-vs-UPD ordering
//! (or Table I's energy ranking) is only credible if it holds across
//! seeds. A sweep is one run of the same cells a campaign journals,
//! folded the way `qgov report` folds the journal:
//!
//! * [`SeedSweep`] — the seed set, from an explicit list, a
//!   `base × n` range, or the `QGOV_SEEDS` environment variable
//!   (default: one seed, preserving the single-run baselines);
//! * [`sweep_metrics`] — the family's per-seed [`CellMetrics`], with
//!   the whole seed × label grid flattened into **one** job queue, so
//!   big hosts get full-width parallelism;
//! * [`qgov_metrics::fold_by_name`] — the by-name fold shared with the
//!   campaign report;
//! * [`sweep_table`] — the one renderer: rows are metric keys, columns
//!   the family's metrics.
//!
//! # Determinism
//!
//! A sweep inherits the runner's bit-identity guarantee and adds one of
//! its own: aggregate values are **invariant to seed-list order**
//! (summaries sort their samples before folding, see
//! [`MetricSummary::from_samples`]),
//! and a sweep aggregated serially is bit-identical to the same sweep
//! on any worker count — `tests/sweep_determinism.rs` pins both, and
//! CI re-runs it at `QGOV_SEEDS=3 QGOV_WORKERS=3`.

use crate::runner::{ExperimentBatch, RunnerConfig};
use crate::worklist::{family_metrics, CellMetrics, Family};
use qgov_metrics::SweepFormat::{Fixed, Percent};
use qgov_metrics::{MetricSummary, PackConfig, SweepFormat, SweepTable};

/// The seed set a multi-seed sweep runs over.
///
/// Constructed from an explicit list ([`SeedSweep::new`]), a
/// consecutive range ([`SeedSweep::base`]), a single seed
/// ([`SeedSweep::single`]) or the `QGOV_SEEDS` environment variable
/// ([`SeedSweep::from_env`]).
///
/// # Examples
///
/// ```
/// use qgov_bench::sweep::SeedSweep;
///
/// assert_eq!(SeedSweep::base(2017, 3).seeds(), &[2017, 2018, 2019]);
/// assert_eq!(SeedSweep::single(42).n(), 1);
/// assert_eq!(SeedSweep::parse("5", 2017).seeds(), SeedSweep::base(2017, 5).seeds());
/// assert_eq!(SeedSweep::parse("2017,5,77", 0).seeds(), &[2017, 5, 77]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSweep {
    seeds: Vec<u64>,
}

impl SeedSweep {
    /// A sweep over an explicit seed list (order does not change the
    /// aggregates; duplicates are kept and weight the fold).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    #[must_use]
    pub fn new(seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "a sweep needs at least one seed");
        SeedSweep { seeds }
    }

    /// The single-seed sweep: aggregates degenerate to the one run's
    /// values (`n = 1`, zero spread) — today's single-run baselines.
    #[must_use]
    pub fn single(seed: u64) -> Self {
        SeedSweep { seeds: vec![seed] }
    }

    /// The consecutive range `base_seed .. base_seed + n_seeds`.
    ///
    /// # Panics
    ///
    /// Panics if `n_seeds` is zero.
    #[must_use]
    pub fn base(base_seed: u64, n_seeds: usize) -> Self {
        assert!(n_seeds > 0, "a sweep needs at least one seed");
        SeedSweep {
            seeds: (0..n_seeds as u64).map(|i| base_seed + i).collect(),
        }
    }

    /// Reads the sweep from the `QGOV_SEEDS` environment variable (see
    /// [`SeedSweep::parse`]); unset means [`SeedSweep::single`] with
    /// `default_seed` — the default that preserves the single-run
    /// baselines.
    #[must_use]
    pub fn from_env(default_seed: u64) -> Self {
        match std::env::var("QGOV_SEEDS") {
            Ok(value) => Self::parse(&value, default_seed),
            Err(_) => SeedSweep::single(default_seed),
        }
    }

    /// The largest bare count [`SeedSweep::parse`] accepts. A bare
    /// `QGOV_SEEDS` number is a *seed count*, so a user writing a seed
    /// *value* (`QGOV_SEEDS=2017`) would otherwise silently launch
    /// thousands of full experiments; no realistic sweep needs more
    /// than this many seeds.
    pub const MAX_PARSED_COUNT: u64 = 1_000;

    /// Parses a `QGOV_SEEDS`-style value:
    ///
    /// * a bare count `n` (e.g. `"5"`, at most
    ///   [`SeedSweep::MAX_PARSED_COUNT`]) sweeps the `n` consecutive
    ///   seeds `default_seed .. default_seed + n`;
    /// * a comma-separated list (e.g. `"2017,5,77"`) sweeps exactly
    ///   those seeds — a trailing comma (`"42,"`) makes a
    ///   single-element list, i.e. *the* seed 42 rather than 42 seeds;
    /// * anything unparsable (including `"0"` and counts above the
    ///   cap) falls back to the single `default_seed` with a warning
    ///   on stderr, so a typo — or a seed value where a count belongs —
    ///   cannot silently masquerade as a sweep.
    #[must_use]
    pub fn parse(value: &str, default_seed: u64) -> Self {
        let value = value.trim();
        if value.is_empty() {
            return SeedSweep::single(default_seed);
        }
        if value.contains(',') {
            let seeds: Result<Vec<u64>, _> = value
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::parse::<u64>)
                .collect();
            match seeds {
                Ok(seeds) if !seeds.is_empty() => return SeedSweep::new(seeds),
                _ => {}
            }
        } else if let Ok(n) = value.parse::<u64>() {
            if (1..=Self::MAX_PARSED_COUNT).contains(&n) {
                return SeedSweep::base(default_seed, n as usize);
            }
            if n > Self::MAX_PARSED_COUNT {
                eprintln!(
                    "warning: QGOV_SEEDS={value} exceeds the seed-count cap \
                     ({max}); a bare number is a COUNT of consecutive seeds \
                     — to sweep the single seed {value} write \
                     QGOV_SEEDS={value}, (trailing comma); using the single \
                     default seed {default_seed}",
                    max = Self::MAX_PARSED_COUNT
                );
                return SeedSweep::single(default_seed);
            }
        }
        eprintln!(
            "warning: unrecognised QGOV_SEEDS value {value:?} \
             (expected a seed count or a comma-separated seed list); \
             using the single default seed {default_seed}"
        );
        SeedSweep::single(default_seed)
    }

    /// The seeds, in sweep order.
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Number of seeds.
    #[must_use]
    pub fn n(&self) -> usize {
        self.seeds.len()
    }

    /// Human-readable description for experiment banners, e.g.
    /// `"seed 2017"`, `"5 seeds (2017..=2021)"` or
    /// `"seeds [2017, 5, 77]"`.
    ///
    /// Total over every seed list: the constructors reject empty
    /// sweeps, but the empty slice would otherwise match the
    /// consecutive arm vacuously (every windows(2) predicate holds on
    /// no windows) and index `seeds[0]` — so it gets an explicit arm
    /// rather than relying on the constructors upstream.
    #[must_use]
    pub fn describe(&self) -> String {
        let consecutive = self
            .seeds
            .windows(2)
            .all(|w| w[0].checked_add(1) == Some(w[1]));
        match (self.seeds.as_slice(), consecutive) {
            ([], _) => "no seeds".to_owned(),
            ([one], _) => format!("seed {one}"),
            (seeds, true) => format!(
                "{} seeds ({}..={})",
                seeds.len(),
                seeds[0],
                seeds[seeds.len() - 1]
            ),
            (seeds, false) => format!("seeds {seeds:?}"),
        }
    }
}

/// Runs a whole experiment *grid* — every `label` × every seed —
/// through **one** flattened [`ExperimentBatch`] job queue and returns
/// one assembled result per seed, in seed order.
///
/// A sweep of `s` seeds over a family with `m` labelled cells keeps up
/// to `s × m` workers busy. Three phases:
///
/// 1. `prepare(seed, frames)` once per **unique** seed (trace
///    recording), itself batched under `runner` — duplicate seeds
///    share one deterministic preparation;
/// 2. `cell(label, &prep, seed, frames)` for the full label × seed
///    cross product in one queue;
/// 3. `assemble(&prep, cells)` per seed, with that seed's cells in
///    label order.
///
/// Every cell derives from `(label, seed)` and its own deterministic
/// preparation, so the result for a seed is bit-identical to the same
/// seed run alone, on any worker count (`tests/sweep_determinism.rs`).
pub(crate) fn collect_grid<P, C, T, Prep, Cell, Asm>(
    labels: &[&str],
    seeds: &[u64],
    frames: u64,
    runner: &RunnerConfig,
    prepare: Prep,
    cell: Cell,
    assemble: Asm,
) -> Vec<T>
where
    P: Send + Sync,
    C: Send,
    Prep: Fn(u64, u64) -> P + Send + Sync,
    Cell: Fn(&str, &P, u64, u64) -> C + Send + Sync,
    Asm: Fn(&P, Vec<C>) -> T,
{
    let mut unique: Vec<u64> = Vec::new();
    for &seed in seeds {
        if !unique.contains(&seed) {
            unique.push(seed);
        }
    }
    let mut prep_batch = ExperimentBatch::new();
    for &seed in &unique {
        let prepare = &prepare;
        prep_batch.push(format!("prepare/seed={seed}"), move || {
            prepare(seed, frames)
        });
    }
    let preps = prep_batch.run(runner);
    let prep_of = |seed: u64| -> &P {
        &preps[unique
            .iter()
            .position(|&s| s == seed)
            .expect("every seed was prepared")]
    };

    let mut batch = ExperimentBatch::new();
    batch.expand_cells(labels, seeds, &[frames], |label, seed, frames| {
        cell(label, prep_of(seed), seed, frames)
    });
    // `expand_cells` iterates labels outermost: regroup the label-major
    // results into per-seed bundles, each in label order.
    let n = seeds.len();
    let mut cells_by_seed: Vec<Vec<C>> = (0..n).map(|_| Vec::with_capacity(labels.len())).collect();
    for (i, c) in batch.run(runner).into_iter().enumerate() {
        cells_by_seed[i % n].push(c);
    }
    seeds
        .iter()
        .zip(cells_by_seed)
        .map(|(&seed, cells)| assemble(prep_of(seed), cells))
        .collect()
}

/// Runs `family` once per sweep seed and returns each seed's
/// [`CellMetrics`], in sweep order: exactly what
/// [`WorkList::run_cell`](crate::worklist::WorkList::run_cell) journals
/// for that seed (the same dispatch, here with the whole seed × label
/// grid in one job queue under `runner`). `pack` attaches the standard
/// temporal-property pack to [`Family::LongHorizon`] cells, adding
/// their `monitor_violations/…` metrics; other families ignore it.
/// [`Family::Fleet`] cells run one instance.
///
/// Fold the result with [`qgov_metrics::fold_by_name`] and render it
/// with [`sweep_table`].
///
/// ```
/// use qgov_bench::runner::RunnerConfig;
/// use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
/// use qgov_bench::worklist::Family;
/// use qgov_metrics::fold_by_name;
///
/// let sweep = SeedSweep::base(2017, 3);
/// let cells = sweep_metrics(Family::Table2, &sweep, 120, None, &RunnerConfig::serial());
/// assert_eq!(cells.len(), 3);
/// let summaries = fold_by_name(&cells);
/// let (_, ratio) = summaries
///     .iter()
///     .find(|(name, _)| name == "epd_upd_ratio/mpeg4")
///     .unwrap();
/// assert_eq!(ratio.n, 3);
/// assert!(sweep_table(Family::Table2, &summaries).render().contains("EPD/UPD"));
/// ```
#[must_use]
pub fn sweep_metrics(
    family: Family,
    sweep: &SeedSweep,
    frames: u64,
    pack: Option<&PackConfig>,
    runner: &RunnerConfig,
) -> Vec<CellMetrics> {
    family_metrics(family, sweep.seeds(), frames, 1, pack, runner)
}

/// One column of a family's sweep table: the metric-name prefix it
/// reads, its header, and its number format.
type Column = (&'static str, &'static str, SweepFormat);

/// The ablation columns; only the smoothing ablation reports the last.
const ABLATION_COLUMNS: &[Column] = &[
    ("normalized_energy", "Normalized energy", Fixed(2)),
    ("normalized_performance", "Normalized performance", Fixed(2)),
    ("miss_rate", "Miss rate", Percent(1)),
    ("convergence_epochs", "Convergence (epochs)", Fixed(1)),
    ("explorations", "Explorations", Fixed(1)),
    ("misprediction", "Misprediction", Percent(1)),
];

/// Each family's row-label header and column list.
fn columns(family: Family) -> (&'static str, &'static [Column]) {
    match family {
        Family::Table1 => (
            "Methodology",
            &[
                ("normalized_energy", "Normalized energy", Fixed(2)),
                ("normalized_performance", "Normalized performance", Fixed(2)),
                ("miss_rate", "Miss rate", Percent(1)),
                ("mean_opp", "Mean OPP", Fixed(1)),
            ],
        ),
        Family::Table2 => (
            "Application",
            &[
                ("upd_explorations", "Explorations [21] (UPD)", Fixed(1)),
                ("epd_explorations", "Our approach (EPD)", Fixed(1)),
                ("epd_upd_ratio", "EPD/UPD", Fixed(2)),
            ],
        ),
        Family::Table3 => (
            "Methodology",
            &[
                (
                    "exploration_epochs",
                    "Time overhead (decision epochs)",
                    Fixed(1),
                ),
                ("convergence_epochs", "Greedy policy stable at", Fixed(1)),
            ],
        ),
        Family::Fig3 => (
            "Workload",
            &[
                (
                    "early_misprediction",
                    "Early misprediction (1–100)",
                    Percent(1),
                ),
                ("late_misprediction", "Late misprediction", Percent(1)),
                ("mispredicted_frames", ">15% frames", Fixed(1)),
            ],
        ),
        Family::StateLevels => ("State levels", &ABLATION_COLUMNS[..5]),
        Family::Smoothing => ("EWMA smoothing", ABLATION_COLUMNS),
        Family::SharedTable => ("Formulation", &ABLATION_COLUMNS[..5]),
        Family::LongHorizon => (
            "Methodology",
            &[
                ("normalized_energy", "Normalized energy", Fixed(2)),
                ("normalized_performance", "Normalized performance", Fixed(2)),
                ("miss_rate", "Miss rate", Percent(1)),
                ("early_miss_rate", "Early miss (first window)", Percent(1)),
                ("late_miss_rate", "Late miss (last window)", Percent(1)),
            ],
        ),
        Family::BigLittle => (
            "Placement",
            &[
                ("energy_joules", "Energy (J)", Fixed(1)),
                ("normalized_energy", "Normalized energy", Fixed(2)),
                ("miss_rate", "Miss rate", Percent(1)),
                ("energy_per_met_frame", "J / met frame", Fixed(3)),
                ("migrations", "Migrations", Fixed(1)),
            ],
        ),
        Family::MeshScaling => (
            "Mesh",
            &[
                ("energy_joules", "Energy (J)", Fixed(1)),
                ("energy_per_cluster", "J / cluster", Fixed(1)),
                ("miss_rate", "Miss rate", Percent(1)),
                ("migrations", "Migrations", Fixed(1)),
            ],
        ),
        Family::FaultStorm => (
            "Coordinator",
            &[
                ("energy_joules", "Energy (J)", Fixed(1)),
                ("miss_rate", "Miss rate", Percent(1)),
                ("post_drop_miss_rate", "Post-drop misses", Percent(1)),
                ("time_to_recover", "Recovery (epochs)", Fixed(1)),
                ("worst_excursion", "Worst excursion", Fixed(2)),
                ("degraded_epochs", "Degraded epochs", Fixed(1)),
                ("monitor_violations", "Monitor violations", Fixed(1)),
            ],
        ),
        Family::Fleet => (
            "Instance",
            &[
                ("miss_rate", "Miss rate", Percent(1)),
                ("normalized_performance", "Normalized performance", Fixed(2)),
                ("mean_opp", "Mean OPP", Fixed(1)),
                ("energy_joules", "Energy (J)", Fixed(1)),
            ],
        ),
    }
}

/// Splits a metric name into `(prefix, row key)`: `"miss_rate/rtm"` →
/// `("miss_rate", "rtm")`. An un-keyed metric (Fig. 3's
/// `early_misprediction`) belongs to the row named after the family.
fn split_metric(name: &str, family: Family) -> (&str, &str) {
    name.split_once('/').unwrap_or((name, family.name()))
}

/// Lays summaries folded by [`qgov_metrics::fold_by_name`] out as
/// `family`'s `mean ± σ (n)` table: one row per metric key (`rtm`,
/// `gamma_0_6`, `mesh_16`, … in first-appearance order), one column
/// per family metric. A metric no cell reported renders as `—`.
#[must_use]
pub fn sweep_table(family: Family, summaries: &[(String, MetricSummary)]) -> SweepTable {
    let (label_header, columns) = columns(family);
    let mut keys: Vec<&str> = Vec::new();
    for (name, _) in summaries {
        let (prefix, key) = split_metric(name, family);
        if columns.iter().any(|c| c.0 == prefix) && !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut table = SweepTable::new(
        label_header,
        columns
            .iter()
            .map(|&(_, header, format)| (header, format))
            .collect(),
    );
    for key in keys {
        let row = columns
            .iter()
            .map(|&(prefix, _, _)| {
                summaries
                    .iter()
                    .find(|(name, _)| split_metric(name, family) == (prefix, key))
                    .map_or_else(|| MetricSummary::from_samples(&[]), |(_, s)| *s)
            })
            .collect();
        table.add_row(key, row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_metrics::fold_by_name;

    #[test]
    fn parse_accepts_counts_lists_and_rejects_garbage() {
        assert_eq!(SeedSweep::parse("1", 2017), SeedSweep::single(2017));
        assert_eq!(SeedSweep::parse("3", 2017), SeedSweep::base(2017, 3));
        assert_eq!(
            SeedSweep::parse(" 2017, 5 , 77 ", 0).seeds(),
            &[2017, 5, 77]
        );
        assert_eq!(SeedSweep::parse("42,", 2017).seeds(), &[42]);
        // Untrimmed tokens: counts and list elements tolerate the
        // whitespace a shell quote or Makefile line tends to leave.
        assert_eq!(SeedSweep::parse(" 7 ", 2017), SeedSweep::base(2017, 7));
        assert_eq!(SeedSweep::parse("\t3\n", 2017), SeedSweep::base(2017, 3));
        assert_eq!(SeedSweep::parse(" 1 ,\t2 ,  3 ", 0).seeds(), &[1, 2, 3]);
        // Seed VALUE zero is reachable through the list form even
        // though the bare count "0" is rejected below.
        assert_eq!(SeedSweep::parse("0,", 2017).seeds(), &[0]);
        assert_eq!(SeedSweep::parse("0", 2017), SeedSweep::single(2017));
        // A seed value where a count belongs must not explode into
        // thousands of runs.
        assert_eq!(SeedSweep::parse("2017", 42), SeedSweep::single(42));
        assert_eq!(
            SeedSweep::parse("1000", 1).n(),
            SeedSweep::MAX_PARSED_COUNT as usize
        );
        assert_eq!(SeedSweep::parse("1001", 1), SeedSweep::single(1));
        assert_eq!(SeedSweep::parse("", 2017), SeedSweep::single(2017));
        assert_eq!(SeedSweep::parse("garbage", 2017), SeedSweep::single(2017));
        assert_eq!(SeedSweep::parse("1,2,x", 2017), SeedSweep::single(2017));
    }

    #[test]
    fn describe_names_the_shape() {
        assert_eq!(SeedSweep::single(42).describe(), "seed 42");
        assert_eq!(SeedSweep::base(2017, 5).describe(), "5 seeds (2017..=2021)");
        assert_eq!(
            SeedSweep::new(vec![2017, 5, 77]).describe(),
            "seeds [2017, 5, 77]"
        );
        // The empty slice must hit its explicit arm, not index
        // seeds[0] through the vacuously-consecutive arm.
        assert_eq!(SeedSweep { seeds: Vec::new() }.describe(), "no seeds");
        // Wrap-around at u64::MAX is not "consecutive".
        assert_eq!(
            SeedSweep::new(vec![u64::MAX, 0]).describe(),
            format!("seeds [{}, 0]", u64::MAX)
        );
    }

    mod describe_totality {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // describe() is total: no seed list — including the empty
            // one the constructors refuse but the type can represent —
            // panics.
            #[test]
            fn describe_never_panics(seeds in proptest::collection::vec(0u64..u64::MAX, 0..8)) {
                let n = seeds.len();
                let described = SeedSweep { seeds }.describe();
                prop_assert!(!described.is_empty());
                if n == 0 {
                    prop_assert_eq!(described, "no seeds");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_panics() {
        let _ = SeedSweep::new(Vec::new());
    }

    #[test]
    fn collect_grid_regroups_by_seed_and_prepares_duplicates_once() {
        let prepared = std::sync::atomic::AtomicUsize::new(0);
        let results = collect_grid(
            &["a", "b"],
            &[10, 30, 10],
            2,
            &RunnerConfig::with_workers(2),
            |seed, frames| {
                prepared.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                seed * frames
            },
            |label, &prep, seed, _| format!("{label}{prep}/{seed}"),
            |&prep, cells| (prep, cells),
        );
        assert_eq!(prepared.into_inner(), 2, "duplicate seeds share one prep");
        assert_eq!(
            results,
            [
                (20, vec!["a20/10".to_owned(), "b20/10".to_owned()]),
                (60, vec!["a60/30".to_owned(), "b60/30".to_owned()]),
                (20, vec!["a20/10".to_owned(), "b20/10".to_owned()]),
            ]
        );
    }

    #[test]
    fn single_seed_sweep_matches_the_single_run() {
        let swept = sweep_metrics(
            Family::Table3,
            &SeedSweep::single(1),
            120,
            None,
            &RunnerConfig::serial(),
        );
        let single = crate::experiments::run_table3_with(1, 120, &RunnerConfig::serial());
        assert_eq!(swept, [single.metrics()]);
        let summaries = fold_by_name(&swept);
        for (name, summary) in &summaries {
            assert_eq!(summary.n, 1, "{name}");
            assert_eq!(summary.std_dev, 0.0, "{name}");
        }
        let (_, rtm) = summaries
            .iter()
            .find(|(name, _)| name == "exploration_epochs/rtm")
            .expect("rtm row");
        assert_eq!(
            rtm.mean.to_bits(),
            (single.rows[1].exploration_epochs as f64).to_bits()
        );
    }

    #[test]
    fn long_horizon_sweep_aggregates_all_methodologies() {
        let sweep = SeedSweep::base(1, 2);
        let cells = sweep_metrics(
            Family::LongHorizon,
            &sweep,
            300,
            None,
            &RunnerConfig::serial(),
        );
        assert_eq!(cells.len(), 2);
        let summaries = fold_by_name(&cells);
        let table = sweep_table(Family::LongHorizon, &summaries);
        let keys: Vec<&str> = table.rows().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["ondemand", "conservative", "rtm"]);
        for (_, row) in table.rows() {
            assert!(row.iter().all(|s| s.n == 2));
        }
        // Ondemand is the reference at every seed: exactly 1.0, zero
        // spread.
        let ondemand = &table.rows()[0].1[0];
        assert_eq!((ondemand.mean, ondemand.std_dev), (1.0, 0.0));
    }

    #[test]
    fn smoothing_misprediction_folds_to_one_sample_per_seed() {
        let sweep = SeedSweep::new(vec![1, 9]);
        let cells = sweep_metrics(
            Family::Smoothing,
            &sweep,
            100,
            None,
            &RunnerConfig::serial(),
        );
        let summaries = fold_by_name(&cells);
        let (_, misprediction) = summaries
            .iter()
            .find(|(name, _)| name == "misprediction/gamma_0_6")
            .expect("smoothing cells report their misprediction");
        assert_eq!(misprediction.n, sweep.n() as u64);
        assert!(misprediction.mean > 0.0);
        let table = sweep_table(Family::Smoothing, &summaries).render();
        assert!(table.contains("Misprediction") && table.contains("gamma_0_6"));
    }

    #[test]
    fn table_rows_are_metric_keys_and_absent_metrics_render_empty() {
        let metric = |name: &str, value: f64| (name.to_owned(), value);
        let cells = [
            vec![metric("exploration_epochs/geqiu", 205.0)],
            vec![
                metric("exploration_epochs/geqiu", 207.0),
                metric("exploration_epochs/rtm", 105.0),
                metric("convergence_epochs/rtm", 140.0),
            ],
        ];
        let table = sweep_table(Family::Table3, &fold_by_name(&cells));
        let rows = table.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].0.as_str(), rows[0].1[0].n), ("geqiu", 2));
        assert!(rows[0].1[1].is_empty(), "never converged: no sample");
        assert_eq!((rows[1].0.as_str(), rows[1].1[1].n), ("rtm", 1));
        // Un-keyed metrics form the row named after the family.
        let fig3 = [vec![metric("early_misprediction", 0.05)]];
        let table = sweep_table(Family::Fig3, &fold_by_name(&fig3));
        assert_eq!(table.rows()[0].0, "fig3");
    }
}
