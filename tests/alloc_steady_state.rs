//! Proof of the zero-allocation decision epoch: a counting global
//! allocator wraps the system allocator, and the steady-state
//! simulate–decide–learn loop (post-warm-up, post-calibration) is
//! asserted to perform **zero** heap allocations per epoch.
//!
//! The loop mirrors `qgov_bench::harness::run_experiment`'s per-epoch
//! body exactly — `next_frame_into` → work-slice scratch refill →
//! `run_frame_into` → `record_frame` (pre-reserved) → `decide` → apply
//! — so the property covers every layer the tentpole optimised:
//! workload generation, the platform frame kernel, the report, and the
//! RTM's fused Q-table epoch with its scratch buffers and bounded
//! history ring.
//!
//! This file deliberately holds a single `#[test]` function: the
//! counter is process-global, and a sibling test allocating
//! concurrently would make the measurement meaningless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qgov::prelude::*;

/// Counts every allocation and reallocation passed to the system
/// allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One harness epoch, identical to `run_experiment_monitored`'s loop
/// body: simulate, record, decide, then feed the streaming temporal
/// monitors one stack-built [`MonitorSample`].
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    app: &mut SyntheticWorkload,
    platform: &mut Platform,
    rtm: &mut RtmGovernor,
    report: &mut RunReport,
    demand: &mut FrameDemand,
    work: &mut [WorkSlice],
    frame: &mut FrameResult,
    monitors: &mut PropertySet<MonitorSample>,
    epoch: u64,
) {
    app.next_frame_into(demand);
    // `to_work_slices_into` for a demand with one thread per core.
    work.fill(WorkSlice::IDLE);
    for (i, t) in demand.threads.iter().enumerate() {
        let core = i.min(work.len() - 1);
        work[core] = WorkSlice::new(
            work[core].cpu_cycles + t.cpu_cycles,
            work[core].mem_time + t.mem_time,
        );
    }
    platform
        .run_frame_into(work, SimTime::from_ms(40), frame)
        .expect("work sized to cores");
    report.record_frame(
        frame.frame_time,
        frame.wall_time,
        frame.energy,
        frame.cluster_opp,
        frame.met_deadline(),
    );
    let decision = rtm.decide(&EpochObservation {
        frame: &*frame,
        epoch,
    });
    monitors.observe(&MonitorSample {
        epoch,
        frame_time_ratio: frame.frame_time.ratio(SimTime::from_ms(40)),
        met_deadline: frame.met_deadline(),
        opp: frame.cluster_opp,
        temperature_c: frame.temperature.as_celsius(),
        energy_j: frame.energy.as_joules(),
        epsilon: rtm.exploration_epsilon().unwrap_or(f64::NAN),
        converged: rtm.has_converged().unwrap_or(false),
    });
    platform.set_cluster_opp(decision.resolve_cluster(platform.current_opp()));
    platform.add_overhead(rtm.processing_overhead());
}

#[test]
fn steady_state_decision_epoch_is_allocation_free() {
    const WARMUP: u64 = 600;
    const MEASURED: u64 = 400;
    const FRAMES: u64 = WARMUP + MEASURED;

    // Noisy constant workload: exploration keeps firing at the ε floor,
    // so the measured window exercises the EPD selection path too.
    let mut app = SyntheticWorkload::constant(
        "steady",
        Cycles::from_mcycles(160),
        SimTime::from_ms(40),
        FRAMES,
        4,
        5,
    )
    .with_noise(0.1);

    let mut platform = Platform::new(PlatformConfig {
        sensor: SensorConfig::ideal(),
        ..PlatformConfig::odroid_xu3_a15()
    })
    .expect("valid platform");
    let cores = platform.cores();

    // Offline bounds (no calibration phase) and a bounded history ring:
    // the long-horizon configuration whose memory must not grow.
    let config = RtmConfig::paper(42)
        .with_workload_bounds(1e7, 1e9)
        .with_history(HistoryMode::LastN(64));
    let mut rtm = RtmGovernor::new(config).expect("valid config");

    // The RTM's own monitor tap: streaming properties over the raw
    // `EpochRecord` telemetry, fed on every decide() regardless of the
    // history mode. All state is built here, before the measured window.
    rtm.attach_monitor(
        PropertySet::new()
            .with("slack-finite", {
                Property::always(|r: &EpochRecord| r.avg_slack.is_finite())
            })
            .with("reaches-floor", {
                Property::eventually(|r: &EpochRecord| r.epsilon <= 0.05)
            }),
    );

    // The harness-level monitor set: the shipped standard pack over
    // `MonitorSample`s, exactly what `run_experiment_monitored` feeds.
    let mut monitors = standard_pack("rtm", &PackConfig::paper());

    let ctx = GovernorContext::new(platform.opp_table().clone(), cores, SimTime::from_ms(40));
    let first = rtm.init(&ctx);
    platform.set_cluster_opp(first.resolve_cluster(platform.current_opp()));

    let mut report = RunReport::new("rtm", "steady", SimTime::from_ms(40));
    report.reserve_frames(FRAMES as usize);
    let mut demand = FrameDemand::default();
    let mut work = vec![WorkSlice::IDLE; cores];
    let mut frame = FrameResult::empty();

    // Warm-up: calibration-free learning start, ε decay past the floor,
    // the history ring through its first compaction (2 × 64 pushes),
    // every scratch buffer grown to capacity.
    for epoch in 0..WARMUP {
        run_epoch(
            &mut app,
            &mut platform,
            &mut rtm,
            &mut report,
            &mut demand,
            &mut work,
            &mut frame,
            &mut monitors,
            epoch,
        );
    }
    assert!(
        rtm.is_exploitation(),
        "warm-up must reach the exploitation phase"
    );

    // Measured window: zero heap allocations across every epoch — with
    // both monitor layers (the RTM's EpochRecord tap and the standard
    // MonitorSample pack) observing every sample.
    let before = allocation_count();
    for epoch in WARMUP..FRAMES {
        run_epoch(
            &mut app,
            &mut platform,
            &mut rtm,
            &mut report,
            &mut demand,
            &mut work,
            &mut frame,
            &mut monitors,
            epoch,
        );
    }
    let allocated = allocation_count() - before;
    assert_eq!(
        allocated, 0,
        "steady-state decision epochs must not allocate \
         ({allocated} allocations over {MEASURED} epochs)"
    );

    // The loop did real work: telemetry advanced and stayed bounded.
    assert_eq!(report.frames(), FRAMES);
    assert_eq!(rtm.history().len(), 64);
    assert!(rtm.exploration_count() > 0);

    // Both monitor layers really observed the whole run and reached
    // non-vacuous verdicts (reporting allocates; it happens after the
    // measured window).
    assert_eq!(monitors.epochs(), FRAMES);
    let pack_report = monitors.report();
    assert!(pack_report.is_clean(), "{}", pack_report.summary());
    let tap_report = rtm.monitor_report().expect("tap attached");
    assert!(tap_report.is_clean(), "{}", tap_report.summary());
    assert!(tap_report
        .verdicts()
        .iter()
        .all(|v| v.verdict == Verdict::Holds));

    // Second phase: the softmax exploration policy. Its fused two-pass
    // select (like the EPD's) must keep the epoch heap-free while the
    // ε-floor keeps firing stochastic selections in steady state.
    let mut config = RtmConfig::paper(43)
        .with_workload_bounds(1e7, 1e9)
        .with_history(HistoryMode::LastN(64));
    config.exploration = ExplorationKind::Softmax { temperature: 0.5 };
    let mut rtm = RtmGovernor::new(config).expect("valid softmax config");
    let mut platform = Platform::new(PlatformConfig {
        sensor: SensorConfig::ideal(),
        ..PlatformConfig::odroid_xu3_a15()
    })
    .expect("valid platform");
    let first = rtm.init(&ctx);
    platform.set_cluster_opp(first.resolve_cluster(platform.current_opp()));
    app.reset();

    let mut report = RunReport::new("rtm-softmax", "steady", SimTime::from_ms(40));
    report.reserve_frames(FRAMES as usize);
    let mut monitors = standard_pack("rtm", &PackConfig::paper());
    for epoch in 0..WARMUP {
        run_epoch(
            &mut app,
            &mut platform,
            &mut rtm,
            &mut report,
            &mut demand,
            &mut work,
            &mut frame,
            &mut monitors,
            epoch,
        );
    }
    let explorations_before = rtm.exploration_count();
    let before = allocation_count();
    for epoch in WARMUP..FRAMES {
        run_epoch(
            &mut app,
            &mut platform,
            &mut rtm,
            &mut report,
            &mut demand,
            &mut work,
            &mut frame,
            &mut monitors,
            epoch,
        );
    }
    let allocated = allocation_count() - before;
    assert_eq!(
        allocated, 0,
        "softmax steady-state decision epochs must not allocate \
         ({allocated} allocations over {MEASURED} epochs)"
    );
    // The measured window actually exercised the softmax select path.
    assert!(
        rtm.exploration_count() > explorations_before,
        "the ε floor must keep stochastic softmax selections firing"
    );

    // Third phase: the fleet engine. One epoch across all instances —
    // the epoch-major inversion of the loop above, each instance an
    // ordinary RtmGovernor stepped through the flat harness's own step
    // — must be just as heap-free in steady state: per-instance
    // governors, platforms and demand/frame scratch, windowed report
    // folds pre-reserved by `reserve_frames`.
    let fleet_seeds = [11u64, 12, 13];
    let mut spec = FleetSpec::new(FRAMES);
    for &seed in &fleet_seeds {
        let config = RtmConfig::paper(seed)
            .with_workload_bounds(1e7, 1e9)
            .with_history(HistoryMode::LastN(64));
        let app = SyntheticWorkload::constant(
            "fleet-steady",
            Cycles::from_mcycles(160),
            SimTime::from_ms(40),
            FRAMES,
            4,
            seed,
        )
        .with_noise(0.1);
        spec.push(
            config,
            Box::new(app),
            PlatformConfig {
                sensor: SensorConfig::ideal(),
                ..PlatformConfig::odroid_xu3_a15()
            },
        );
    }
    let mut engine = FleetEngine::new(spec.with_windowed_frames(50));
    // Warm-up: past calibration-free learning start, the history rings'
    // first compaction (2 × 64 epochs), every scratch buffer at
    // capacity.
    for _ in 0..WARMUP {
        assert!(engine.step_epoch(), "fleet must still be running");
    }
    let before = allocation_count();
    for _ in WARMUP..FRAMES {
        engine.step_epoch();
    }
    let allocated = allocation_count() - before;
    assert_eq!(
        allocated,
        0,
        "fleet steady-state decision epochs must not allocate \
         ({allocated} allocations over {} epochs x {} instances)",
        MEASURED,
        fleet_seeds.len()
    );
    assert_eq!(engine.epoch(), FRAMES);
    // finish() allocates (report totals, outcome vectors) — after the
    // measured window. The fleet really ran every instance to the end.
    let outcome = engine.finish();
    assert_eq!(outcome.total_frames, FRAMES * fleet_seeds.len() as u64);
    for report in &outcome.reports {
        assert_eq!(report.frames(), FRAMES);
        assert!(report.frame_windows().is_some());
    }
}
