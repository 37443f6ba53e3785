//! The qgov benchmark: one command, four workloads, the end-to-end
//! metrics (`--trace 0`) or the per-layer epoch breakdown
//! (`--trace 1`) of one workload per run.
//!
//! ```console
//! cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload flat_paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Everything above it
//! is the human-readable report. `perfbench/README.md` records why
//! each workload was chosen and what each metric means.

mod flat;
mod fleet;
mod glue;
mod manycore;
mod trace;

use qgov_metrics::RunReport;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Layer, LayerTotals, Span, Tracer};

/// Extra set-ups spread over the timed part of a run; `setup_s` is
/// the median of these and the first. Spreading them lets them sample
/// the same host conditions the timed passes see.
const SETUP_REPS: usize = 8;
/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// End-to-end metrics (`--trace 0`), in output order, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("miss_rate", "ratio"),
    ("energy_per_met_frame_j", "J"),
    ("check_pass_rate", "ratio"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units.
const PER_LAYER: [(&str, &str); 26] = [
    ("workloads.next_frame_ns", "ns"),
    ("workloads.split_ns", "ns"),
    ("setup.precharacterize_s", "s"),
    ("sim.run_frame_ns", "ns"),
    ("sim.opp_transitions_per_epoch", "1/epoch"),
    ("fault.sense_ns", "ns"),
    ("fault.redistribute_ns", "ns"),
    ("fault.active_epochs", "epochs/cell"),
    ("core.decide_ns", "ns"),
    ("core.migrations_per_epoch", "1/epoch"),
    ("core.migration_reversal_ratio", "ratio"),
    ("core.degraded_epochs", "epochs/cell"),
    ("core.safe_state_epochs", "epochs/cell"),
    ("rl.exploration_ratio", "ratio"),
    ("metrics.record_ns", "ns"),
    ("metrics.monitor_ns", "ns"),
    ("metrics.monitor_violations", "count/cell"),
    ("bench.harness_self_ns", "ns"),
    ("bench.fleet_engine_ns", "ns"),
    ("bench.fleet_sequential_ns", "ns"),
    ("cli.cell_s", "s"),
    ("cli.journal_s", "s"),
    ("cli.journal_bytes", "bytes"),
    ("epoch_ns.p50", "ns"),
    ("epoch_ns.p99", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics read straight off a layer's span self time, per
/// simulated epoch.
const LAYER_METRICS: [(&str, Layer); 8] = [
    ("workloads.next_frame_ns", Layer::NextFrame),
    ("workloads.split_ns", Layer::Split),
    ("sim.run_frame_ns", Layer::RunFrame),
    ("fault.sense_ns", Layer::Sense),
    ("fault.redistribute_ns", Layer::Redistribute),
    ("core.decide_ns", Layer::Decide),
    ("metrics.record_ns", Layer::Record),
    ("metrics.monitor_ns", Layer::Monitor),
];

/// Simulated totals of one pass. For a fixed seed they repeat exactly
/// on every pass and every run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimTotals {
    pub frames: u64,
    pub misses: u64,
    pub energy_j: f64,
}

impl SimTotals {
    /// Adds one (chip-level) run report.
    pub fn add_report(&mut self, report: &RunReport) {
        self.frames += report.frames();
        self.misses += report.deadline_misses();
        self.energy_j += report.total_energy().as_joules();
    }
}

/// One timed pass over a workload's fixed set of cells.
pub struct Pass {
    /// `(simulated epochs, host seconds)` of each separately timed
    /// unit of the pass: every cell, or the whole campaign.
    pub timed: Vec<(u64, f64)>,
    pub sim: SimTotals,
    /// Per-cell fingerprint of the simulated outcome; `None` when the
    /// cell panicked.
    pub cells: Vec<Option<u64>>,
}

impl Pass {
    fn host_s(&self) -> f64 {
        self.timed.iter().map(|(_, s)| s).sum()
    }
}

/// Output checks, counted per cell: a cell fails when it panics or
/// any check on it fails.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one attempted cell and the checks that failed on it.
    pub fn cell(&mut self, label: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for failure in failures {
                self.failures.push(format!("{label}: {failure}"));
            }
        }
    }
}

/// One benchmark-side traced pass.
pub struct TracedPass {
    /// Simulated epochs the pass covered.
    pub frames: u64,
    /// Host nanoseconds the pass took (its traced loops only).
    pub wall_ns: u64,
    /// Every span the pass recorded.
    pub spans: Vec<Span>,
    /// Per-layer metrics the workload counts itself.
    pub counters: Vec<(&'static str, f64)>,
}

/// What the one-off traced phases yield: timing decorators inside
/// the real harness, and controls.
pub struct Decorated {
    /// Per-layer metrics the controls measure.
    pub counters: Vec<(&'static str, f64)>,
    /// Extra lines for the stage table.
    pub notes: Vec<String>,
}

/// One benchmark workload: a fixed set of cells built from the seed.
pub trait Workload {
    /// One-line description of the cell set.
    fn describe(&self) -> String;
    /// Host seconds the set-up spent in `precharacterize`, where it
    /// records a trace.
    fn precharacterize_s(&self) -> Option<f64>;
    /// Runs every cell once; only the harness calls are timed.
    fn pass(&mut self) -> Pass;
    /// Output checks beyond pass-to-pass determinism (untimed).
    fn check(&mut self, checks: &mut Checks);
    /// One pass of the benchmark-side loop, with a span at every layer
    /// call. With `checks`, its outcome is compared bit for bit with
    /// the untraced harness run's.
    fn traced_pass(&mut self, tracer: &Tracer, checks: Option<&mut Checks>) -> TracedPass;
    /// The timing decorators inside the real harness (and any control
    /// runs), checked bit for bit against the untraced run.
    fn decorated(&mut self, tracer: &Tracer, checks: &mut Checks) -> Decorated;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} value {value:?} is not valid");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

const USAGE: &str = "usage: perfbench --workload <flat_paper|mesh16|fault_storm|fleet_campaign> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Builds a workload's inputs from the seed: its set-up.
fn setup(name: &str, seed: u64, root: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "flat_paper" => Box::new(flat::Flat::setup(seed)),
        "mesh16" => Box::new(manycore::ManyCore::setup(manycore::MESH16, seed)),
        "fault_storm" => Box::new(manycore::ManyCore::setup(manycore::FAULT_STORM, seed)),
        "fleet_campaign" => Box::new(fleet::FleetCampaign::setup(seed, root)?),
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let mut workload = match setup(&args.workload, args.seed, &work_dir().join("live")) {
        Ok(workload) => workload,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let setup_s = start.elapsed().as_secs_f64();
    println!(
        "workload {} (seed {}): {}",
        args.workload,
        args.seed,
        workload.describe()
    );
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced_run(&args, workload.as_mut(), &mut checks)
    } else {
        end_to_end_run(&args, workload.as_mut(), setup_s, &mut checks)
    };
    drop(workload);
    let _ = std::fs::remove_dir_all(work_dir());
    for (name, value) in &metrics {
        if !value.is_finite() {
            checks.cell("metrics", vec![format!("{name} is not finite")]);
        }
    }

    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ({} of {} cells failed)",
        checks.failed, checks.attempted
    );
    for failure in &checks.failures {
        println!("FAILED CHECK {failure}");
    }
    println!("{}", result_json(&checks, &metrics));
}

/// Checks every pass's cells against the first pass's.
fn check_passes(passes: &[Pass], checks: &mut Checks) {
    let first = &passes[0];
    for (p, pass) in passes.iter().enumerate() {
        for (c, cell) in pass.cells.iter().enumerate() {
            let mut failures = Vec::new();
            match (cell, first.cells.get(c)) {
                (None, _) => failures.push("panicked".to_owned()),
                (Some(ours), Some(Some(theirs))) if ours == theirs => {}
                _ => failures.push(format!("pass {p} differs from pass 0")),
            }
            checks.cell(&format!("pass {p} cell {c}"), failures);
        }
    }
}

/// Steady-state throughput: one pass's epochs over the sum of each
/// separately timed unit's fastest time. Other tenants of the host
/// only ever slow a unit down, and on a shared machine they do so for
/// seconds at a time, so the fastest of many short runs of the same
/// unit tracks the code's own speed where the median tracks the
/// neighbours.
fn steady_rate(passes: &[Pass]) -> f64 {
    let (mut frames, mut secs) = (0.0, 0.0);
    for (u, &(unit_frames, _)) in passes[0].timed.iter().enumerate() {
        let fastest = passes
            .iter()
            .filter_map(|p| p.timed.get(u))
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min);
        frames += unit_frames as f64;
        secs += fastest;
    }
    frames / secs
}

fn pass_rate(pass: &Pass) -> f64 {
    pass.sim.frames as f64 / pass.host_s().max(f64::MIN_POSITIVE)
}

fn end_to_end_run(
    args: &Args,
    workload: &mut dyn Workload,
    first_setup_s: f64,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let mut setup_times = vec![first_setup_s];
    // Read before any extra set-up shares the heap with the workload.
    let mut peak_rss = None;
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(workload.pass());
        let due = setup_times.len() as f64 * args.seconds / (SETUP_REPS + 1) as f64;
        if setup_times.len() <= SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            peak_rss.get_or_insert_with(peak_rss_mb);
            let root = work_dir().join("setup");
            let begin = Instant::now();
            let again =
                setup(&args.workload, args.seed, &root).expect("the first set-up succeeded");
            setup_times.push(begin.elapsed().as_secs_f64());
            drop(again);
            let _ = std::fs::remove_dir_all(&root);
        }
    }
    check_passes(&passes, checks);
    workload.check(checks);
    let sim = passes[0].sim;
    let met = sim.frames.saturating_sub(sim.misses);
    let metrics = vec![
        ("frames_per_s", steady_rate(&passes)),
        ("setup_s", median(&setup_times)),
        ("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb)),
        ("miss_rate", sim.misses as f64 / sim.frames.max(1) as f64),
        ("energy_per_met_frame_j", sim.energy_j / met.max(1) as f64),
        (
            "check_pass_rate",
            1.0 - checks.failed as f64 / checks.attempted.max(1) as f64,
        ),
    ];
    let rates: Vec<f64> = passes.iter().map(pass_rate).collect();
    println!(
        "{} timed passes of {} simulated epochs; whole-pass frames/s quartiles {:.0} / {:.0} / {:.0}",
        passes.len(),
        sim.frames,
        quantile(&rates, 0.25),
        quantile(&rates, 0.5),
        quantile(&rates, 0.75),
    );
    for ((name, value), (_, unit)) in metrics.iter().zip(END_TO_END) {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    metrics
}

/// The traced run: untraced and traced passes alternate, so both see
/// the same host conditions, then the decorated harness runs once.
fn traced_run(
    args: &Args,
    workload: &mut dyn Workload,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let tracer = Tracer::new(1 << 20);
    let mut totals = LayerTotals::default();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced_ns: Vec<f64> = Vec::new();
    let (mut frames, mut wall_ns) = (0u64, 0u64);
    let mut counters = Vec::new();
    let mut spans = Vec::new();
    let start = Instant::now();
    while untraced.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        untraced.push(workload.pass());
        let first = traced_ns.is_empty();
        let pass = workload.traced_pass(&tracer, first.then_some(&mut *checks));
        totals.add(&pass.spans);
        frames += pass.frames;
        wall_ns += pass.wall_ns;
        traced_ns.push(pass.wall_ns as f64 / pass.frames.max(1) as f64);
        if first {
            counters = pass.counters;
        }
        spans = pass.spans;
    }
    check_passes(&untraced, checks);
    let decorated = workload.decorated(&tracer, checks);
    counters.extend(decorated.counters);

    let untraced_ns: Vec<f64> = untraced.iter().map(|p| 1e9 / pass_rate(p)).collect();
    let overhead = median(&traced_ns) / median(&untraced_ns);
    let per_frame = wall_ns as f64 / frames.max(1) as f64;
    let layer_ns: u64 = Layer::ALL
        .iter()
        .filter(|&&l| l != Layer::Epoch)
        .map(|&l| totals.self_ns(l))
        .sum();
    let harness_self_ns = wall_ns.saturating_sub(layer_ns) as f64 / frames.max(1) as f64;

    let mut values: Vec<(&'static str, Option<f64>)> =
        PER_LAYER.iter().map(|(name, _)| (*name, None)).collect();
    let mut set = |name: &str, value: f64| {
        let slot = values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("a declared per-layer metric");
        slot.1 = Some(value);
    };
    for (name, layer) in LAYER_METRICS {
        if totals.calls(layer) > 0 {
            set(name, totals.self_ns(layer) as f64 / frames.max(1) as f64);
        }
    }
    let cells = totals.calls(Layer::CliCell);
    if cells > 0 {
        let per_cell = |layer| totals.self_ns(layer) as f64 / 1e9 / cells as f64;
        set("cli.cell_s", per_cell(Layer::CliCell));
        set("cli.journal_s", per_cell(Layer::CliJournal));
    }
    if let Some(s) = workload.precharacterize_s() {
        set("setup.precharacterize_s", s);
    }
    set("bench.harness_self_ns", harness_self_ns);
    if !totals.epoch_ns.is_empty() {
        set("epoch_ns.p50", totals.epoch_quantile_ns(0.50));
        set("epoch_ns.p99", totals.epoch_quantile_ns(0.99));
    }
    set("trace.overhead_ratio", overhead);
    for (name, value) in &counters {
        set(name, *value);
    }

    println!(
        "{} untraced and {} traced passes, alternating: untraced median {:.1} ns/epoch, \
         traced median {:.1} ns/epoch, trace.overhead_ratio {overhead:.3}",
        untraced.len(),
        traced_ns.len(),
        median(&untraced_ns),
        median(&traced_ns),
    );
    print!(
        "{}",
        stage_table(&totals, frames, harness_self_ns, per_frame)
    );
    println!(
        "  {:<26} {:>12} {:>14.1}   (trace.overhead_ratio {overhead:.3})",
        "untraced (same passes)",
        "-",
        median(&untraced_ns)
    );
    for note in &decorated.notes {
        println!("  {note}");
    }
    println!(
        "  an empty span measures {:.1} ns on this host",
        Tracer::empty_span_ns()
    );
    println!("per-layer metrics:");
    for ((name, value), (_, unit)) in values.iter().zip(PER_LAYER) {
        match value {
            Some(v) => println!("  {name:<32} {v:>16.4} {unit}"),
            None => println!(
                "  {name:<32} {:>16} {unit} (layer not on this workload)",
                "n/a"
            ),
        }
    }
    let path = trace_dir().join(format!("{}-spans.csv", args.workload));
    match trace::write_spans(&path, &spans) {
        Ok(()) => println!(
            "wrote {} spans of the last traced pass to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    // Layers that do not run on this workload read 0 in the JSON.
    values
        .into_iter()
        .map(|(name, value)| (name, value.unwrap_or(0.0)))
        .collect()
}

/// The per-workload stage table: each layer's self time next to the
/// traced ns/epoch, with the harness residual shown rather than
/// folded away.
fn stage_table(totals: &LayerTotals, frames: u64, harness_self_ns: f64, traced_ns: f64) -> String {
    let frames = frames.max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<26} {:>12} {:>14} {:>8}",
        "stage", "calls/epoch", "self ns/epoch", "share"
    );
    let mut row = |name: &str, calls: Option<f64>, ns: f64| {
        let calls = match calls {
            None => "-".to_owned(),
            Some(c) if c >= 0.01 => format!("{c:.3}"),
            Some(c) => format!("{c:.2e}"),
        };
        let _ = writeln!(
            out,
            "  {name:<26} {calls:>12} {ns:>14.1} {:>7.1}%",
            100.0 * ns / traced_ns
        );
    };
    for layer in Layer::ALL {
        if layer != Layer::Epoch && totals.calls(layer) > 0 {
            row(
                layer.name(),
                Some(totals.calls(layer) as f64 / frames),
                totals.self_ns(layer) as f64 / frames,
            );
        }
    }
    row("bench.harness_self", None, harness_self_ns);
    row("total (traced)", None, traced_ns);
    out
}

fn result_json(checks: &Checks, metrics: &[(&'static str, f64)]) -> String {
    let units = END_TO_END.iter().chain(PER_LAYER.iter());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = units
            .clone()
            .find(|(n, _)| n == name)
            .map(|(_, u)| *u)
            .expect("a declared metric");
        // JSON has no NaN; a non-finite metric already failed a check.
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q` quantile (0..=1) of unsorted samples, interpolated
/// linearly between order statistics (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The build's target directory (the executable lives in
/// `<target>/release/`), where run-time files go so that they stay
/// inside the checkout and out of version control.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// Scratch state directories of this process (removed at exit).
fn work_dir() -> PathBuf {
    target_dir()
        .join("perfbench-work")
        .join(std::process::id().to_string())
}

/// Where the traced run writes its spans.
fn trace_dir() -> PathBuf {
    target_dir().join("perfbench-traces")
}

/// Host nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A 64-bit FNV-1a fold, for cheap per-cell fingerprints.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Fingerprint of a run report's simulated outcome.
pub fn report_fingerprint(report: &RunReport) -> u64 {
    fnv([
        report.frames(),
        report.deadline_misses(),
        report.total_energy().as_joules().to_bits(),
        report.measured_energy().as_joules().to_bits(),
        report.transitions(),
        report.mean_opp().to_bits(),
        report.peak_temp().as_celsius().to_bits(),
        report
            .monitor_report()
            .map_or(u64::MAX, |m| m.violation_count() as u64),
    ])
}

/// Bit-identity of two reports: their `Debug` renderings print every
/// float in shortest round-trip form, so equal text means equal bits.
pub fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Derives the seed of instance `i` from the benchmark seed.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    // splitmix64, so neighbouring benchmark seeds share no instances.
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 12
}
