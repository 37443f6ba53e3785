//! `fleet_campaign`: `qgov sweep` of a `family = "fleet"` campaign
//! into a fresh state directory, then `qgov report`.
//!
//! It is the only workload that runs `FleetEngine` / `QArena` and the
//! campaign journal. The fleet reaches the RL kernels through
//! structure-of-arrays lanes rather than per-agent `QTable`s, so a
//! kernel change that helps one path and hurts the other shows up
//! between this workload and `flat_paper`. The sweep and report run
//! in process through the functions the `qgov` subcommands call.

use crate::trace::{Layer, LayerTotals, TimedApp, TimedGovernor, Tracer};
use crate::{elapsed_ns, instance_seed, same_bits, Checks, Decorated, Pass, SimTotals, TracedPass};
use qgov_bench::fleet::{run_fleet, FleetEngine, FleetSpec};
use qgov_bench::harness::run_experiment;
use qgov_bench::worklist::{fleet_cell_app, fleet_cell_config, fleet_cell_platform, WorkCell};
use qgov_bench::RunnerConfig;
use qgov_cli::campaign;
use qgov_cli::journal::{self, CellRecord, JournalWriter};
use qgov_cli::CampaignConfig;
use qgov_core::RtmGovernor;
use qgov_metrics::RunReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Campaign cells (seeds) per pass: 64 fleet instances in all, enough
/// that the mean miss rate varies little between benchmark seeds.
const CELLS: usize = 8;
/// Fleet instances per cell.
const FLEET: usize = 8;
/// Frames per instance.
const FRAMES: u64 = 2_000;
/// Journal appends between snapshots.
const SNAPSHOT_EVERY: u64 = 2;
/// Campaign workers. One: the pass is then a single timed unit on one
/// thread, whose fastest time is as steady as the in-process
/// workloads'. With two workers on a two-core host the fastest pass
/// needs both cores free at once, and it varied by ~18 % between runs.
const WORKERS: usize = 1;

/// The first pass's campaign, the reference for every later check.
struct Reference {
    report: String,
    records: Vec<CellRecord>,
}

pub struct FleetCampaign {
    config: CampaignConfig,
    root: PathBuf,
    /// An initialised state dir for the next pass.
    armed: Option<PathBuf>,
    reference: Option<Reference>,
    journal_bytes: u64,
}

impl FleetCampaign {
    /// Writes the campaign config, parses it the way `qgov sweep` does
    /// and initialises the first state dir.
    pub fn setup(seed: u64, root: &Path) -> Result<FleetCampaign, String> {
        std::fs::create_dir_all(root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        let seeds: Vec<String> = (0..CELLS)
            .map(|c| instance_seed(seed, c).to_string())
            .collect();
        let text = format!(
            "[campaign]\nname = \"perfbench-fleet\"\nfamily = \"fleet\"\nseeds = [{}]\n\
             frames = {FRAMES}\nworkers = {WORKERS}\nfleet = {FLEET}\nmonitors = \"off\"\n\
             snapshot_every = {SNAPSHOT_EVERY}\n",
            seeds.join(", "),
        );
        let path = root.join("campaign.toml");
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let config = CampaignConfig::from_file(&path).map_err(|e| e.to_string())?;
        let mut workload = FleetCampaign {
            config,
            root: root.to_path_buf(),
            armed: None,
            reference: None,
            journal_bytes: 0,
        };
        workload.armed = Some(workload.fresh_state_dir()?);
        Ok(workload)
    }

    /// Initialises the state dir for the next pass. Every pass reuses
    /// one path, deleted after the pass: a new directory per pass slows
    /// every later directory creation in the same parent.
    fn fresh_state_dir(&self) -> Result<PathBuf, String> {
        let dir = self.root.join("state");
        let _ = std::fs::remove_dir_all(&dir);
        campaign::init(&dir, &self.config).map_err(|e| e.to_string())?;
        Ok(dir)
    }

    fn cells(&self) -> Vec<WorkCell> {
        self.config.worklist().cells()
    }

    /// The journaled records of a finished campaign, in work-list order.
    fn records(&self, dir: &Path) -> Result<Vec<CellRecord>, String> {
        let mut progress = campaign::progress(dir, &self.config).map_err(|e| e.to_string())?;
        self.cells()
            .iter()
            .map(|cell| {
                progress
                    .cells
                    .remove(&cell.id)
                    .ok_or_else(|| format!("cell {} missing from the journal", cell.id))
            })
            .collect()
    }

    /// The fleet spec of one cell, built as the campaign cell builds it.
    fn spec(cell: &WorkCell) -> FleetSpec {
        let seeds: Vec<u64> = instance_seeds(cell);
        FleetSpec::uniform(
            &fleet_cell_config(0),
            &seeds,
            &fleet_cell_platform(),
            FRAMES,
            |s| Box::new(fleet_cell_app(s, FRAMES)),
        )
    }

    fn reference_record(&self, cell: usize) -> Option<&CellRecord> {
        self.reference.as_ref().and_then(|r| r.records.get(cell))
    }
}

fn instance_seeds(cell: &WorkCell) -> Vec<u64> {
    (0..FLEET as u64)
        .map(|i| cell.seed.wrapping_add(i))
        .collect()
}

/// One instance run the plain way: one `RtmGovernor`, one
/// `run_experiment`.
fn sequential_governor(seed: u64) -> RtmGovernor {
    let mut config = fleet_cell_config(0);
    config.seed = seed;
    RtmGovernor::new(config).expect("paper config is valid")
}

fn metric(record: &CellRecord, name: &str) -> Option<f64> {
    record
        .metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
}

fn add_record(sim: &mut SimTotals, record: &CellRecord) {
    for i in 0..FLEET {
        let miss_rate = metric(record, &format!("miss_rate/i{i}")).unwrap_or(f64::NAN);
        sim.frames += FRAMES;
        sim.misses += (miss_rate * FRAMES as f64).round() as u64;
        sim.energy_j += metric(record, &format!("energy_joules/i{i}")).unwrap_or(f64::NAN);
    }
}

fn record_fingerprint(record: &CellRecord) -> u64 {
    crate::fnv(record.metrics.iter().map(|(_, v)| v.to_bits()))
}

/// The journaled per-instance metrics must be the sequential reports'
/// own values, bit for bit.
fn journal_matches(record: &CellRecord, sequential: &[RunReport]) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, report) in sequential.iter().enumerate() {
        let expected = [
            ("miss_rate", report.miss_rate()),
            ("normalized_performance", report.normalized_performance()),
            ("mean_opp", report.mean_opp()),
            ("energy_joules", report.total_energy().as_joules()),
        ];
        for (name, value) in expected {
            let journaled = metric(record, &format!("{name}/i{i}"));
            if journaled.map(f64::to_bits) != Some(value.to_bits()) {
                failures.push(format!(
                    "instance {i}: journaled {name} {journaled:?} != sequential run_experiment {value}"
                ));
            }
        }
    }
    failures
}

impl crate::Workload for FleetCampaign {
    fn describe(&self) -> String {
        format!(
            "fleet campaign of {CELLS} cells x {FLEET} instances x {FRAMES} frames, \
             {WORKERS} campaign worker, journal snapshot every {SNAPSHOT_EVERY} cells"
        )
    }

    fn precharacterize_s(&self) -> Option<f64> {
        // Fleet cells take fixed workload bounds; nothing is recorded.
        None
    }

    fn pass(&mut self) -> Pass {
        let dir = self.armed.take().expect("an armed state dir");
        let runner = self.config.runner();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            campaign::run(&dir, &self.config, &runner)?;
            campaign::render_report(&dir, &self.config)
        }));
        let host_s = start.elapsed().as_secs_f64();

        let mut sim = SimTotals::default();
        let mut cells = vec![None; CELLS];
        let report = match outcome {
            Ok(Ok(report)) => Some(report),
            Ok(Err(e)) => {
                eprintln!("campaign failed: {e}");
                None
            }
            Err(_) => None,
        };
        if let (Some(report), Ok(records)) = (report, self.records(&dir)) {
            for (slot, record) in cells.iter_mut().zip(&records) {
                add_record(&mut sim, record);
                *slot = Some(record_fingerprint(record));
            }
            self.journal_bytes =
                std::fs::metadata(dir.join(campaign::JOURNAL_FILE)).map_or(0, |m| m.len());
            if self.reference.is_none() {
                self.reference = Some(Reference { report, records });
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        self.armed = Some(
            self.fresh_state_dir()
                .expect("the work dir accepted a state dir before"),
        );
        Pass {
            timed: vec![(sim.frames, host_s)],
            sim,
            cells,
        }
    }

    fn check(&mut self, checks: &mut Checks) {
        let worklist = self.config.worklist();
        let complete = format!("cells complete: {CELLS}/{CELLS}");
        for (c, cell) in self.cells().iter().enumerate() {
            let mut failures = Vec::new();
            let Some(record) = self.reference_record(c) else {
                checks.cell(&cell.id, vec!["no journaled record".into()]);
                continue;
            };
            // The campaign report folds exactly these journaled values.
            let in_process = worklist.run_cell(cell);
            if !same_bits(&in_process, &record.metrics) {
                failures.push("journaled metrics differ from the in-process cell".into());
            }
            let report = self.reference.as_ref().map_or("", |r| r.report.as_str());
            if !report.contains(&complete) {
                failures.push(format!("campaign report lacks `{complete}`"));
            }
            // Every fleet instance against its own plain run.
            let fleet = run_fleet(Self::spec(cell), &RunnerConfig::serial());
            let sequential: Vec<RunReport> = instance_seeds(cell)
                .into_iter()
                .map(|s| {
                    let mut gov = sequential_governor(s);
                    let mut app = fleet_cell_app(s, FRAMES);
                    run_experiment(&mut gov, &mut app, fleet_cell_platform(), FRAMES).report
                })
                .collect();
            for (i, (engine, plain)) in fleet.reports.iter().zip(&sequential).enumerate() {
                if !same_bits(engine, plain) {
                    failures.push(format!(
                        "fleet instance {i} differs from its run_experiment"
                    ));
                }
            }
            failures.extend(journal_matches(record, &sequential));
            checks.cell(&cell.id, failures);
        }
    }

    fn traced_pass(&mut self, tracer: &Tracer, checks: Option<&mut Checks>) -> TracedPass {
        let dir = self.armed.take().expect("an armed state dir");
        let start = Instant::now();
        let result = traced_campaign(&dir, &self.config, tracer);
        let wall_ns = elapsed_ns(start);
        if let Some(checks) = checks {
            let failures = match (&result, &self.reference) {
                (Ok((report, records)), Some(reference)) => {
                    let mut failures = Vec::new();
                    if *report != reference.report {
                        failures.push("campaign report differs from `qgov sweep`'s".into());
                    }
                    if !same_bits(records, &reference.records) {
                        failures.push("journaled cells differ from `qgov sweep`'s".into());
                    }
                    failures
                }
                (Err(e), _) => vec![format!("campaign failed: {e}")],
                (_, None) => vec!["no reference campaign".into()],
            };
            checks.cell("fleet traced campaign", failures);
        }
        let _ = std::fs::remove_dir_all(&dir);
        self.armed = Some(
            self.fresh_state_dir()
                .expect("the work dir accepted a state dir before"),
        );
        TracedPass {
            frames: (CELLS * FLEET) as u64 * FRAMES,
            wall_ns,
            spans: tracer.drain(),
            // The journal `qgov sweep` itself wrote (same records, so the
            // same size as the one written here).
            counters: vec![("cli.journal_bytes", self.journal_bytes as f64)],
        }
    }

    fn decorated(&mut self, tracer: &Tracer, checks: &mut Checks) -> Decorated {
        // The fleet engine against its sequential control (N plain
        // `run_experiment` calls on the same instances), and the
        // control again with timing decorators.
        let mut engine_totals = LayerTotals::default();
        let mut sequential_totals = LayerTotals::default();
        let mut decorated_totals = LayerTotals::default();
        let mut step_ns: Vec<f64> = Vec::new();
        let (mut transitions, mut explorations) = (0u64, 0u64);
        for cell in self.cells() {
            let mut engine = FleetEngine::new(Self::spec(&cell));
            while tracer.span(Layer::FleetEngine, || engine.step_epoch()) {}
            let engine_reports = engine.finish().reports;
            let engine_spans = tracer.drain();
            step_ns.extend(
                engine_spans
                    .iter()
                    .map(|s| (s.end_ns - s.start_ns) as f64 / FLEET as f64),
            );
            engine_totals.add(&engine_spans);

            let mut failures = Vec::new();
            for (i, s) in instance_seeds(&cell).into_iter().enumerate() {
                let mut gov = sequential_governor(s);
                let mut app = fleet_cell_app(s, FRAMES);
                let plain = tracer.span(Layer::FleetSequential, || {
                    run_experiment(&mut gov, &mut app, fleet_cell_platform(), FRAMES).report
                });
                sequential_totals.add(&tracer.drain());
                transitions += plain.transitions();
                explorations += gov.exploration_count();

                let mut gov = sequential_governor(s);
                let mut app = fleet_cell_app(s, FRAMES);
                let decorated = run_experiment(
                    &mut TimedGovernor::new(&mut gov, tracer),
                    &mut TimedApp::new(&mut app, tracer),
                    fleet_cell_platform(),
                    FRAMES,
                )
                .report;
                decorated_totals.add(&tracer.drain());

                if !same_bits(&engine_reports[i], &plain) {
                    failures.push(format!(
                        "fleet instance {i} differs from its run_experiment"
                    ));
                }
                if !same_bits(&decorated, &plain) {
                    failures.push(format!("decorated run of instance {i} differs"));
                }
            }
            checks.cell(&format!("{} (controls)", cell.id), failures);
        }

        let epochs = (CELLS * FLEET) as f64 * FRAMES as f64;
        let engine_ns = engine_totals.self_ns(Layer::FleetEngine) as f64 / epochs;
        let sequential_ns = sequential_totals.self_ns(Layer::FleetSequential) as f64 / epochs;
        Decorated {
            counters: vec![
                (
                    "workloads.next_frame_ns",
                    decorated_totals.self_ns(Layer::NextFrame) as f64 / epochs,
                ),
                (
                    "core.decide_ns",
                    decorated_totals.self_ns(Layer::Decide) as f64 / epochs,
                ),
                ("sim.opp_transitions_per_epoch", transitions as f64 / epochs),
                ("rl.exploration_ratio", explorations as f64 / epochs),
                ("bench.fleet_engine_ns", engine_ns),
                ("bench.fleet_sequential_ns", sequential_ns),
                ("epoch_ns.p50", crate::quantile(&step_ns, 0.50)),
                ("epoch_ns.p99", crate::quantile(&step_ns, 0.99)),
            ],
            notes: vec![
                format!(
                    "fleet engine {engine_ns:.1} ns per instance-epoch vs {sequential_ns:.1} ns for \
                     sequential run_experiment (engine/sequential {:.3})",
                    engine_ns / sequential_ns
                ),
                format!(
                    "epoch_ns.* here: one engine step over {FLEET} instances, divided by {FLEET}; \
                     next_frame and decide come from the decorated sequential control"
                ),
            ],
        }
    }
}

/// What `campaign::run` followed by `campaign::render_report` does for
/// a fresh state dir, serially and with a span around each cell, each
/// journal write and the report.
fn traced_campaign(
    dir: &Path,
    config: &CampaignConfig,
    tracer: &Tracer,
) -> Result<(String, Vec<CellRecord>), String> {
    let worklist = config.worklist();
    let cells = worklist.cells();
    let fingerprint = config.fingerprint();
    let before = campaign::progress(dir, config).map_err(|e| e.to_string())?;
    let journal_path = dir.join(campaign::JOURNAL_FILE);
    let snapshot_path = dir.join(campaign::SNAPSHOT_FILE);
    let mut writer =
        JournalWriter::open_append(&journal_path, fingerprint, before.journal_clean_len)
            .map_err(|e| e.to_string())?;
    let mut done: Vec<CellRecord> = Vec::with_capacity(cells.len());
    let mut since_snapshot = 0u64;
    for (epoch, cell) in cells.iter().enumerate() {
        tracer.set_epoch(epoch as u64);
        let metrics = tracer.span(Layer::CliCell, || worklist.run_cell(cell));
        let record = CellRecord::new(cell.id.clone(), metrics);
        tracer.span(Layer::CliJournal, || -> Result<(), String> {
            writer.append(&record).map_err(|e| e.to_string())?;
            done.push(record);
            since_snapshot += 1;
            if since_snapshot >= config.snapshot_every {
                since_snapshot = 0;
                journal::write_snapshot(&snapshot_path, fingerprint, &done)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
    }
    tracer.span(Layer::CliJournal, || {
        journal::write_snapshot(&snapshot_path, fingerprint, &done).map_err(|e| e.to_string())
    })?;
    let report = tracer.span(Layer::CliReport, || {
        campaign::render_report(dir, config).map_err(|e| e.to_string())
    })?;
    Ok((report, done))
}
