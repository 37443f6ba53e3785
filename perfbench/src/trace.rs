//! In-memory span tracing for the traced run (`--trace 1`).
//!
//! Spans come only from this benchmark's files: the timing decorators
//! below wrap the trait objects the harness accepts, and the
//! benchmark-side epoch loops wrap the calls the harness makes
//! internally. Spans are kept in a preallocated vector while a pass
//! runs and folded into per-layer self times afterwards; the last
//! traced pass is written out as CSV when the benchmark ends.

use qgov_governors::{
    EpochObservation, Governor, GovernorContext, ManyCoreGovernor, ManyCoreObservation, VfDecision,
};
use qgov_units::SimTime;
use qgov_workloads::{Application, FrameDemand};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// A layer boundary the benchmark records a span at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole decision epoch of a benchmark-side loop (the root).
    Epoch,
    /// `Application::next_frame_into` (workload demand).
    NextFrame,
    /// `split_demand_into` (demand split across clusters).
    Split,
    /// `FaultInjector::begin_epoch` and the dead-cluster notification.
    FaultBegin,
    /// `FaultInjector::redistribute_dead` over every cluster.
    Redistribute,
    /// `Platform::run_frame_into` / `ManyCorePlatform::run_frame_into`.
    RunFrame,
    /// `RunReport::record_frame` (chip and cluster reports).
    Record,
    /// Sensed copy plus `FaultInjector::perturb_sensing`.
    Sense,
    /// `Governor::decide` / `ManyCoreGovernor::decide_into`.
    Decide,
    /// Monitor sample plus `PropertySet::observe`.
    Monitor,
    /// Actuation faults rewriting the decisions.
    FaultActuate,
    /// Applying decisions and overheads to the platform.
    Actuate,
    /// One `FleetEngine::step_epoch` (all instances, one epoch).
    FleetEngine,
    /// One plain `run_experiment` of a fleet instance.
    FleetSequential,
    /// One `WorkList::run_cell` of a campaign.
    CliCell,
    /// Journal append and snapshot writes of a campaign.
    CliJournal,
    /// `campaign::render_report`.
    CliReport,
}

impl Layer {
    /// Every layer, in stage-table order.
    pub const ALL: [Layer; 17] = [
        Layer::Epoch,
        Layer::NextFrame,
        Layer::Split,
        Layer::FaultBegin,
        Layer::Redistribute,
        Layer::RunFrame,
        Layer::Record,
        Layer::Sense,
        Layer::Decide,
        Layer::Monitor,
        Layer::FaultActuate,
        Layer::Actuate,
        Layer::FleetEngine,
        Layer::FleetSequential,
        Layer::CliCell,
        Layer::CliJournal,
        Layer::CliReport,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Epoch => "bench.epoch",
            Layer::NextFrame => "workloads.next_frame",
            Layer::Split => "workloads.split",
            Layer::FaultBegin => "fault.begin",
            Layer::Redistribute => "fault.redistribute",
            Layer::RunFrame => "sim.run_frame",
            Layer::Record => "metrics.record",
            Layer::Sense => "fault.sense",
            Layer::Decide => "core.decide",
            Layer::Monitor => "metrics.monitor",
            Layer::FaultActuate => "fault.actuate",
            Layer::Actuate => "sim.actuate",
            Layer::FleetEngine => "bench.fleet_engine",
            Layer::FleetSequential => "bench.fleet_sequential",
            Layer::CliCell => "cli.cell",
            Layer::CliJournal => "cli.journal",
            Layer::CliReport => "cli.report",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span: times are host nanoseconds since the tracer
/// was created; `parent` indexes the enclosing span of the same pass.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub epoch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder shared by the decorators and the benchmark-side
/// loops of one pass (single-threaded).
pub struct Tracer {
    base: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<u32>,
    epoch: Cell<u32>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            base: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(capacity)),
            open: Cell::new(NO_PARENT),
            epoch: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans that follow with `epoch`.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.set(u32::try_from(epoch).unwrap_or(u32::MAX));
    }

    /// Runs `f` inside a span of `layer`, nested under the span open
    /// around this call.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                parent: self.open.get(),
                epoch: self.epoch.get(),
                start_ns: 0,
                end_ns: 0,
            });
            u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans per pass")
        };
        let parent = self.open.replace(index);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.set(parent);
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[index as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Median measured duration of an empty span: about what timing
    /// adds to the self time of every span.
    pub fn empty_span_ns() -> f64 {
        let probe = Tracer::new(1_000);
        for _ in 0..1_000 {
            probe.span(Layer::Epoch, || ());
        }
        let durations: Vec<f64> = probe
            .drain()
            .iter()
            .map(|s| s.duration_ns() as f64)
            .collect();
        crate::median(&durations)
    }

    /// Takes the spans recorded so far, leaving the tracer empty (its
    /// capacity is kept for the next pass).
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = self.spans.borrow_mut();
        let out = spans.clone();
        spans.clear();
        self.open.set(NO_PARENT);
        out
    }
}

/// Per-layer self time and call counts folded over traced passes.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    self_ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    /// Durations of every `Epoch` span (for the epoch percentiles).
    pub epoch_ns: Vec<u64>,
}

impl LayerTotals {
    /// Folds one pass's spans: a span's self time is its duration
    /// minus the time its child spans cover.
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        for (span, children) in spans.iter().zip(&child_ns) {
            let i = span.layer.index();
            self.self_ns[i] += span.duration_ns().saturating_sub(*children);
            self.calls[i] += 1;
            if span.layer == Layer::Epoch {
                self.epoch_ns.push(span.duration_ns());
            }
        }
    }

    /// Total self time of `layer` in nanoseconds.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Number of spans of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// The decorator spans' per-epoch self times, for a stage-table
    /// line on the decorated harness run.
    pub fn decorator_note(&self, frames: u64) -> String {
        let frames = frames.max(1) as f64;
        format!(
            "decorators in the real harness: workloads.next_frame {:.1} ns/epoch, \
             core.decide {:.1} ns/epoch",
            self.self_ns(Layer::NextFrame) as f64 / frames,
            self.self_ns(Layer::Decide) as f64 / frames
        )
    }

    /// The `q` quantile (0..=1) of the epoch span durations.
    pub fn epoch_quantile_ns(&self, q: f64) -> f64 {
        let epochs: Vec<f64> = self.epoch_ns.iter().map(|&ns| ns as f64).collect();
        crate::quantile(&epochs, q)
    }
}

/// Writes spans as CSV (`layer,start_ns,end_ns,parent,epoch`; a root
/// span's parent is -1).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 40 + 64);
    text.push_str("layer,start_ns,end_ns,parent,epoch\n");
    for span in spans {
        let parent = if span.parent == NO_PARENT {
            -1
        } else {
            i64::from(span.parent)
        };
        let _ = writeln!(
            text,
            "{},{},{},{},{}",
            span.layer.name(),
            span.start_ns,
            span.end_ns,
            parent,
            span.epoch
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Timing decorator for an [`Application`]: spans every frame fetch
/// and forwards every method, defaulted ones included.
pub struct TimedApp<'a, A: ?Sized> {
    inner: &'a mut A,
    tracer: &'a Tracer,
    cursor: u64,
}

impl<'a, A: Application + ?Sized> TimedApp<'a, A> {
    pub fn new(inner: &'a mut A, tracer: &'a Tracer) -> Self {
        TimedApp {
            inner,
            tracer,
            cursor: 0,
        }
    }

    fn next_epoch(&mut self) {
        // The frame fetch opens every harness epoch, so its cursor
        // numbers the epochs of runs the benchmark does not drive.
        self.tracer.set_epoch(self.cursor);
        self.cursor += 1;
    }
}

impl<A: Application + ?Sized> Application for TimedApp<'_, A> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn period(&self) -> SimTime {
        self.inner.period()
    }
    fn frames(&self) -> u64 {
        self.inner.frames()
    }
    fn next_frame(&mut self) -> FrameDemand {
        self.next_epoch();
        let inner = &mut *self.inner;
        self.tracer.span(Layer::NextFrame, || inner.next_frame())
    }
    fn next_frame_into(&mut self, out: &mut FrameDemand) {
        self.next_epoch();
        let inner = &mut *self.inner;
        self.tracer
            .span(Layer::NextFrame, || inner.next_frame_into(out));
    }
    fn reset(&mut self) {
        self.cursor = 0;
        self.inner.reset();
    }
    fn fps(&self) -> f64 {
        self.inner.fps()
    }
}

/// Timing decorator for a flat [`Governor`]: spans every decision and
/// forwards every method, defaulted ones included.
pub struct TimedGovernor<'a, G: ?Sized> {
    inner: &'a mut G,
    tracer: &'a Tracer,
}

impl<'a, G: Governor + ?Sized> TimedGovernor<'a, G> {
    pub fn new(inner: &'a mut G, tracer: &'a Tracer) -> Self {
        TimedGovernor { inner, tracer }
    }
}

impl<G: Governor + ?Sized> Governor for TimedGovernor<'_, G> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn init(&mut self, ctx: &GovernorContext) -> VfDecision {
        self.inner.init(ctx)
    }
    fn decide(&mut self, obs: &EpochObservation<'_>) -> VfDecision {
        let inner = &mut *self.inner;
        self.tracer.span(Layer::Decide, || inner.decide(obs))
    }
    fn processing_overhead(&self) -> SimTime {
        self.inner.processing_overhead()
    }
    fn exploration_epsilon(&self) -> Option<f64> {
        self.inner.exploration_epsilon()
    }
    fn has_converged(&self) -> Option<bool> {
        self.inner.has_converged()
    }
}

/// Timing decorator for a [`ManyCoreGovernor`]: spans every chip
/// decision and forwards every method, defaulted ones included.
pub struct TimedManyCore<'a, G: ?Sized> {
    inner: &'a mut G,
    tracer: &'a Tracer,
}

impl<'a, G: ManyCoreGovernor + ?Sized> TimedManyCore<'a, G> {
    pub fn new(inner: &'a mut G, tracer: &'a Tracer) -> Self {
        TimedManyCore { inner, tracer }
    }
}

impl<G: ManyCoreGovernor + ?Sized> ManyCoreGovernor for TimedManyCore<'_, G> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn init(&mut self, ctxs: &[GovernorContext], decisions: &mut Vec<VfDecision>) {
        self.inner.init(ctxs, decisions);
    }
    fn decide_into(
        &mut self,
        obs: &ManyCoreObservation<'_>,
        decisions: &mut Vec<VfDecision>,
        shares: &mut [f64],
    ) {
        let inner = &mut *self.inner;
        self.tracer
            .span(Layer::Decide, || inner.decide_into(obs, decisions, shares));
    }
    fn processing_overhead(&self, cluster: usize) -> SimTime {
        self.inner.processing_overhead(cluster)
    }
    fn exploration_epsilon(&self) -> Option<f64> {
        self.inner.exploration_epsilon()
    }
    fn has_converged(&self) -> Option<bool> {
        self.inner.has_converged()
    }
    fn notify_cluster_dead(&mut self, cluster: usize) {
        self.inner.notify_cluster_dead(cluster);
    }
}
