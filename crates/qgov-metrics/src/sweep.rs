//! Cross-seed aggregation: order-invariant sample summaries and the
//! `mean ± σ (n)` tables the multi-seed experiment sweeps render.
//!
//! A sweep runs the same experiment once per seed and folds each
//! metric's per-seed samples into a [`MetricSummary`] (mean, sample
//! standard deviation, extrema, 95 % confidence interval). Summaries
//! are **invariant to sample order**: the fold sorts by
//! [`f64::total_cmp`] first, so aggregating seeds `[5, 77]` is
//! bit-identical to aggregating `[77, 5]` — the property
//! `tests/sweep_determinism.rs` pins.
//!
//! [`SweepTable`] renders one summary per cell in the paper-table
//! layouts ([`ComparisonTable`] underneath), with per-column numeric
//! formats and a wide CSV export carrying the full summary.

use crate::stats::OnlineStats;
use crate::table::ComparisonTable;
use std::collections::HashMap;

/// A keep-all-samples accumulator: everything [`OnlineStats`] offers
/// plus order statistics ([`SampleStats::quantile`]), for the small
/// sample counts of a seed sweep (one sample per seed).
///
/// # Examples
///
/// ```
/// use qgov_metrics::SampleStats;
///
/// let s: SampleStats = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
/// assert_eq!(s.quantile(0.5), Some(2.5));
/// assert_eq!(s.quantile(0.0), Some(1.0));
/// assert_eq!(s.quantile(1.0), Some(4.0));
/// assert_eq!(s.summary().mean, 2.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleStats {
    samples: Vec<f64>,
}

impl SampleStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        SampleStats {
            samples: Vec::new(),
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "samples must be finite, got {x}");
        self.samples.push(x);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, in push order.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The `q`-quantile (0 = min, 0.5 = median, 1 = max) with linear
    /// interpolation between order statistics; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        Some(quantile_of_sorted(&sorted, q))
    }

    /// Folds the samples into a [`MetricSummary`] (order-invariant).
    #[must_use]
    pub fn summary(&self) -> MetricSummary {
        MetricSummary::from_samples(&self.samples)
    }
}

impl Extend<f64> for SampleStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for SampleStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Linearly interpolated `q`-quantile of an already-sorted slice.
fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// One metric's cross-seed aggregate: sample count, mean, sample
/// standard deviation, extrema, p50/p95 quantiles and the 95 %
/// confidence half-width.
///
/// Construction sorts the samples by [`f64::total_cmp`] before
/// folding, so a summary is **bit-identical under any permutation of
/// its samples** — what makes sweep aggregates invariant to seed-list
/// order. The quantiles use the same linear interpolation between
/// order statistics as [`SampleStats::quantile`]. With a single sample
/// (`n = 1`) the spread fields are all zero and [`MetricSummary::cell`]
/// renders a bare mean: σ of one observation is undefined, not small.
///
/// # Examples
///
/// ```
/// use qgov_metrics::MetricSummary;
///
/// let s = MetricSummary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(s.n, 5);
/// assert_eq!(s.mean, 3.0);
/// assert_eq!((s.min, s.max), (1.0, 5.0));
/// assert_eq!((s.p50, s.p95), (3.0, 4.8));
/// assert_eq!(s.cell(1), "3.0 ± 1.6 (n=5)");
/// assert_eq!(MetricSummary::from_samples(&[2.5]).cell(2), "2.50 (n=1)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Number of samples aggregated.
    pub n: u64,
    /// Sample mean (zero when empty).
    pub mean: f64,
    /// Sample (`n − 1`) standard deviation; zero when `n < 2`.
    pub std_dev: f64,
    /// Smallest sample (zero when empty).
    pub min: f64,
    /// Largest sample (zero when empty).
    pub max: f64,
    /// Median (0.5-quantile, interpolated; zero when empty).
    pub p50: f64,
    /// 0.95-quantile (interpolated; zero when empty).
    pub p95: f64,
    /// Half-width of the 95 % Student-t confidence interval on the
    /// mean; zero when `n < 2`.
    pub ci95: f64,
}

impl MetricSummary {
    /// Aggregates `samples` (any order; the fold sorts first).
    ///
    /// An empty slice yields the all-zero `n = 0` summary, which
    /// renders as `—`.
    ///
    /// # Panics
    ///
    /// Panics if any sample is not finite.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let stats: OnlineStats = sorted.iter().copied().collect();
        let (p50, p95) = if sorted.is_empty() {
            (0.0, 0.0)
        } else {
            (
                quantile_of_sorted(&sorted, 0.5),
                quantile_of_sorted(&sorted, 0.95),
            )
        };
        MetricSummary {
            n: stats.count(),
            mean: stats.mean(),
            std_dev: stats.sample_std_dev(),
            min: stats.min().unwrap_or(0.0),
            max: stats.max().unwrap_or(0.0),
            p50,
            p95,
            ci95: stats.ci95_half_width(),
        }
    }

    /// `true` when no samples were aggregated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Renders the `mean ± σ (n)` cell with `decimals` fraction
    /// digits: `"1.19 ± 0.02 (n=5)"`, a bare `"1.19 (n=1)"` when σ is
    /// undefined, `"—"` when empty.
    #[must_use]
    pub fn cell(&self, decimals: usize) -> String {
        match self.n {
            0 => "—".into(),
            1 => format!("{:.decimals$} (n=1)", self.mean),
            n => format!(
                "{:.decimals$} ± {:.decimals$} (n={n})",
                self.mean, self.std_dev
            ),
        }
    }

    /// [`MetricSummary::cell`] for a fractional metric, scaled to
    /// percent: `"6.0% ± 0.4% (n=5)"`.
    #[must_use]
    pub fn cell_pct(&self, decimals: usize) -> String {
        match self.n {
            0 => "—".into(),
            1 => format!("{:.decimals$}% (n=1)", self.mean * 100.0),
            n => format!(
                "{:.decimals$}% ± {:.decimals$}% (n={n})",
                self.mean * 100.0,
                self.std_dev * 100.0
            ),
        }
    }
}

/// Folds per-cell `(metric name, value)` lists into one
/// [`MetricSummary`] per metric name: metrics in first-appearance order
/// scanning the cells in order, each metric's samples in cell order. A
/// metric a cell does not report (e.g. a convergence epoch that was
/// never reached) simply contributes no sample, so the summary's `n`
/// counts the cells that did.
///
/// # Examples
///
/// ```
/// use qgov_metrics::fold_by_name;
///
/// let cells = vec![
///     vec![("energy/rtm".to_owned(), 1.0), ("misses/rtm".to_owned(), 0.5)],
///     vec![("energy/rtm".to_owned(), 3.0)],
/// ];
/// let folded = fold_by_name(&cells);
/// assert_eq!(folded[0].0, "energy/rtm");
/// assert_eq!((folded[0].1.mean, folded[0].1.n), (2.0, 2));
/// assert_eq!((folded[1].0.as_str(), folded[1].1.n), ("misses/rtm", 1));
/// ```
#[must_use]
pub fn fold_by_name<I>(cells: I) -> Vec<(String, MetricSummary)>
where
    I: IntoIterator,
    I::Item: AsRef<[(String, f64)]>,
{
    let mut order: Vec<String> = Vec::new();
    let mut samples: HashMap<String, Vec<f64>> = HashMap::new();
    for cell in cells {
        for (name, value) in cell.as_ref() {
            if !samples.contains_key(name) {
                order.push(name.clone());
            }
            samples.entry(name.clone()).or_default().push(*value);
        }
    }
    order
        .into_iter()
        .map(|name| {
            let summary = MetricSummary::from_samples(&samples[&name]);
            (name, summary)
        })
        .collect()
}

/// How a [`SweepTable`] column formats its summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFormat {
    /// Fixed-point with this many fraction digits.
    Fixed(usize),
    /// Fraction scaled to percent with this many fraction digits.
    Percent(usize),
}

impl SweepFormat {
    fn render(self, summary: &MetricSummary) -> String {
        match self {
            SweepFormat::Fixed(d) => summary.cell(d),
            SweepFormat::Percent(d) => summary.cell_pct(d),
        }
    }
}

/// A paper-style comparison table whose data cells are cross-seed
/// [`MetricSummary`] aggregates, rendered as `mean ± σ (n)`.
///
/// The first column labels the row (methodology, application,
/// configuration); every further column is a metric with its own
/// [`SweepFormat`]. [`SweepTable::render`] produces the aligned ASCII
/// table; [`SweepTable::to_csv`] exports the *full* summaries (mean,
/// σ, min, max, CI half-width, n per metric) in raw units for
/// downstream tooling.
///
/// # Examples
///
/// ```
/// use qgov_metrics::{MetricSummary, SweepFormat, SweepTable};
///
/// let mut t = SweepTable::new(
///     "Methodology",
///     vec![("Normalized energy", SweepFormat::Fixed(2))],
/// );
/// t.add_row("Proposed", vec![MetricSummary::from_samples(&[1.18, 1.20, 1.19])]);
/// assert!(t.render().contains("1.19 ± 0.01 (n=3)"));
/// assert!(t.to_csv().starts_with(
///     "Methodology,Normalized energy mean,Normalized energy sd"
/// ));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTable {
    label_header: String,
    columns: Vec<(String, SweepFormat)>,
    rows: Vec<(String, Vec<MetricSummary>)>,
}

impl SweepTable {
    /// Creates a table with a row-label header and one
    /// `(header, format)` pair per metric column.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    #[must_use]
    pub fn new<S: Into<String>>(
        label_header: impl Into<String>,
        columns: Vec<(S, SweepFormat)>,
    ) -> Self {
        assert!(
            !columns.is_empty(),
            "a sweep table needs at least one metric column"
        );
        SweepTable {
            label_header: label_header.into(),
            columns: columns.into_iter().map(|(h, f)| (h.into(), f)).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of one summary per metric column.
    ///
    /// # Panics
    ///
    /// Panics if the summary count differs from the column count.
    pub fn add_row(&mut self, label: impl Into<String>, summaries: Vec<MetricSummary>) {
        assert_eq!(
            summaries.len(),
            self.columns.len(),
            "row has {} summaries for {} metric columns",
            summaries.len(),
            self.columns.len()
        );
        self.rows.push((label.into(), summaries));
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows: `(label, one summary per metric column)`.
    #[must_use]
    pub fn rows(&self) -> &[(String, Vec<MetricSummary>)] {
        &self.rows
    }

    /// Renders the aligned ASCII table with `mean ± σ (n)` cells.
    #[must_use]
    pub fn render(&self) -> String {
        let mut headers = vec![self.label_header.clone()];
        headers.extend(self.columns.iter().map(|(h, _)| h.clone()));
        let mut table = ComparisonTable::new(headers);
        for (label, summaries) in &self.rows {
            let mut cells = vec![label.clone()];
            cells.extend(
                self.columns
                    .iter()
                    .zip(summaries)
                    .map(|((_, format), summary)| format.render(summary)),
            );
            table.add_row(cells);
        }
        table.render()
    }

    /// Exports the full summaries as CSV: per metric column `M`, the
    /// columns `M mean`, `M sd`, `M p50`, `M p95`, `M min`, `M max`,
    /// `M ci95`, `M n`, all in raw (unscaled) units.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut headers = vec![self.label_header.clone()];
        for (h, _) in &self.columns {
            for part in ["mean", "sd", "p50", "p95", "min", "max", "ci95", "n"] {
                headers.push(format!("{h} {part}"));
            }
        }
        let mut table = ComparisonTable::new(headers);
        for (label, summaries) in &self.rows {
            let mut cells = vec![label.clone()];
            for s in summaries {
                cells.push(format!("{}", s.mean));
                cells.push(format!("{}", s.std_dev));
                cells.push(format!("{}", s.p50));
                cells.push(format!("{}", s.p95));
                cells.push(format!("{}", s.min));
                cells.push(format!("{}", s.max));
                cells.push(format!("{}", s.ci95));
                cells.push(s.n.to_string());
            }
            table.add_row(cells);
        }
        table.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_two_pass_reference() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0];
        let s = MetricSummary::from_samples(&xs);
        let mean = xs.iter().sum::<f64>() / 5.0;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 4.0;
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.std_dev - var.sqrt()).abs() < 1e-12);
        assert_eq!((s.min, s.max, s.n), (1.0, 8.0, 5));
        assert!((s.ci95 - 2.776 * var.sqrt() / 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_is_bit_identical_under_permutation() {
        let a = MetricSummary::from_samples(&[0.1 + 0.2, 0.3, 1e-9, -7.5]);
        let b = MetricSummary::from_samples(&[-7.5, 0.3, 0.1 + 0.2, 1e-9]);
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
        assert_eq!(a.ci95.to_bits(), b.ci95.to_bits());
        assert_eq!(
            (a.min.to_bits(), a.max.to_bits()),
            (b.min.to_bits(), b.max.to_bits())
        );
        assert_eq!(
            (a.p50.to_bits(), a.p95.to_bits()),
            (b.p50.to_bits(), b.p95.to_bits())
        );
    }

    #[test]
    fn n1_renders_bare_mean_and_zero_spread() {
        let s = MetricSummary::from_samples(&[1.19]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.cell(2), "1.19 (n=1)");
        assert_eq!(s.cell_pct(1), "119.0% (n=1)");
    }

    #[test]
    fn empty_summary_renders_dash() {
        let s = MetricSummary::from_samples(&[]);
        assert!(s.is_empty());
        assert_eq!(s.cell(2), "—");
        assert_eq!(s.cell_pct(1), "—");
    }

    #[test]
    fn constant_series_has_zero_sigma_but_full_cell() {
        let s = MetricSummary::from_samples(&[3.0; 6]);
        assert_eq!(s.cell(1), "3.0 ± 0.0 (n=6)");
        assert_eq!(s.min, s.max);
    }

    #[test]
    fn quantiles_interpolate() {
        let s: SampleStats = [10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(s.quantile(0.0), Some(10.0));
        assert_eq!(s.quantile(1.0), Some(40.0));
        assert_eq!(s.quantile(0.5), Some(25.0));
        assert_eq!(s.quantile(0.25), Some(17.5));
        assert_eq!(SampleStats::new().quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_rejects_out_of_range() {
        let s: SampleStats = [1.0].into_iter().collect();
        let _ = s.quantile(1.5);
    }

    #[test]
    fn summary_quantiles_match_sample_stats() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0];
        let summary = MetricSummary::from_samples(&xs);
        let stats: SampleStats = xs.into_iter().collect();
        assert_eq!(
            summary.p50.to_bits(),
            stats.quantile(0.5).unwrap().to_bits()
        );
        assert_eq!(
            summary.p95.to_bits(),
            stats.quantile(0.95).unwrap().to_bits()
        );
        // Interpolated: p95 sits between the two largest order stats.
        assert!(summary.p95 > 7.0 && summary.p95 < 9.0);
        // Degenerate cases: one sample collapses, empty zeroes out.
        let one = MetricSummary::from_samples(&[4.2]);
        assert_eq!((one.p50, one.p95), (4.2, 4.2));
        let none = MetricSummary::from_samples(&[]);
        assert_eq!((none.p50, none.p95), (0.0, 0.0));
    }

    #[test]
    fn wide_csv_exports_quantile_columns() {
        let mut t = SweepTable::new("Methodology", vec![("Energy", SweepFormat::Fixed(2))]);
        t.add_row(
            "Proposed",
            vec![MetricSummary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0])],
        );
        let csv = t.to_csv();
        let headers: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        assert_eq!(
            headers,
            vec![
                "Methodology",
                "Energy mean",
                "Energy sd",
                "Energy p50",
                "Energy p95",
                "Energy min",
                "Energy max",
                "Energy ci95",
                "Energy n",
            ]
        );
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row[3], "3"); // p50
        assert_eq!(row[4], "4.8"); // p95, interpolated
        assert_eq!(row[8], "5"); // n
    }

    #[test]
    fn sweep_table_renders_and_exports() {
        let mut t = SweepTable::new(
            "Methodology",
            vec![
                ("Normalized energy", SweepFormat::Fixed(2)),
                ("Miss rate", SweepFormat::Percent(1)),
            ],
        );
        t.add_row(
            "Proposed",
            vec![
                MetricSummary::from_samples(&[1.18, 1.20]),
                MetricSummary::from_samples(&[0.06, 0.08]),
            ],
        );
        t.add_row(
            "Oracle",
            vec![
                MetricSummary::from_samples(&[1.0, 1.0]),
                MetricSummary::from_samples(&[0.0, 0.0]),
            ],
        );
        let text = t.render();
        assert!(text.contains("1.19 ± 0.01 (n=2)"), "{text}");
        assert!(text.contains("7.0% ± 1.4% (n=2)"), "{text}");
        let csv = t.to_csv();
        assert!(csv.contains("Miss rate ci95"));
        assert!(csv.lines().nth(1).unwrap().starts_with("Proposed,1.19,"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn fold_by_name_keeps_first_appearance_order_and_skips_absent_metrics() {
        let cell = |pairs: &[(&str, f64)]| -> Vec<(String, f64)> {
            pairs.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
        };
        let cells = [
            cell(&[("b", 2.0), ("a", 1.0)]),
            cell(&[("a", 3.0), ("c", 7.0)]),
            cell(&[("b", 4.0)]),
        ];
        let folded = fold_by_name(&cells);
        let names: Vec<&str> = folded.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["b", "a", "c"]);
        assert_eq!(folded[0].1, MetricSummary::from_samples(&[2.0, 4.0]));
        assert_eq!(folded[1].1, MetricSummary::from_samples(&[1.0, 3.0]));
        assert_eq!(folded[2].1.n, 1);
        assert!(fold_by_name(Vec::<Vec<(String, f64)>>::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "summaries for")]
    fn sweep_table_validates_row_width() {
        let mut t = SweepTable::new("x", vec![("a", SweepFormat::Fixed(2))]);
        t.add_row("r", vec![]);
    }
}
