//! Proof of the zero-allocation many-core epoch: a counting global
//! allocator wraps the system allocator, and the steady-state epoch of
//! a 4-cluster mesh under [`ManyCoreRtm::paper`] (one Q-agent per
//! cluster plus greedy migration) is asserted to perform **zero** heap
//! allocations.
//!
//! The loop mirrors `qgov_bench::manycore::run_manycore_experiment`'s
//! per-epoch body through the public steps — `next_frame_into` →
//! `split_demand_into` → work-slice refill →
//! `ManyCorePlatform::run_frame_into` → `record_frame` (pre-reserved)
//! → `decide_into` → `set_cluster_opp` / `add_overhead` — so the
//! property covers the demand split, the chip barrier, every
//! per-cluster agent and the migration policy.
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

const CLUSTERS: usize = 4;
const PERIOD: SimTime = SimTime::from_ms(40);

/// Every buffer the many-core epoch reuses, built once before the run.
struct Mesh {
    app: SyntheticWorkload,
    chip: ManyCorePlatform,
    gov: ManyCoreRtm,
    report: RunReport,
    cores: Vec<usize>,
    shares: Vec<f64>,
    demand: FrameDemand,
    cluster_demands: Vec<FrameDemand>,
    work: Vec<Vec<WorkSlice>>,
    frame: ManyCoreFrameResult,
    decisions: Vec<VfDecision>,
}

impl Mesh {
    /// One many-core epoch, identical to the clean (fault-free) path of
    /// `run_manycore_experiment`'s loop body.
    fn epoch(&mut self, epoch: u64) {
        self.app.next_frame_into(&mut self.demand);
        split_demand_into(
            &self.demand,
            &self.shares,
            &self.cores,
            &mut self.cluster_demands,
        );
        // `to_work_slices_into` for each cluster's slice of the demand.
        for (slices, demand) in self.work.iter_mut().zip(&self.cluster_demands) {
            slices.fill(WorkSlice::IDLE);
            for (i, t) in demand.threads.iter().enumerate() {
                let core = i.min(slices.len() - 1);
                slices[core] = WorkSlice::new(
                    slices[core].cpu_cycles + t.cpu_cycles,
                    slices[core].mem_time + t.mem_time,
                );
            }
        }
        self.chip
            .run_frame_into(&self.work, PERIOD, &mut self.frame)
            .expect("work sized to the topology");
        self.report.record_frame(
            self.frame.frame_time,
            self.frame.wall_time,
            self.frame.energy,
            self.frame.clusters[0].cluster_opp,
            self.frame.met_deadline(),
        );
        self.gov.decide_into(
            &ManyCoreObservation {
                frames: &self.frame.clusters,
                epoch,
            },
            &mut self.decisions,
            &mut self.shares,
        );
        for (c, decision) in self.decisions.iter().enumerate() {
            let index = decision.resolve_cluster(self.chip.current_opp(c));
            self.chip.set_cluster_opp(c, index);
            self.chip.add_overhead(c, self.gov.processing_overhead(c));
        }
    }
}

#[test]
fn steady_state_manycore_epoch_is_allocation_free() {
    const WARMUP: u64 = 200;
    const MEASURED: u64 = 1_600;
    const FRAMES: u64 = WARMUP + MEASURED;

    // The mesh workload: ~40 % utilisation of four A15 quads, noisy so
    // migration and exploration keep firing.
    let mut app = SyntheticWorkload::constant(
        "mesh",
        Cycles::from_mcycles(130 * CLUSTERS as u64),
        PERIOD,
        FRAMES,
        4 * CLUSTERS,
        9,
    )
    .with_noise(0.1);
    let (_, bounds) = precharacterize(&mut app);
    app.reset();

    let chip = ManyCorePlatform::new(Topology::homogeneous_mesh(
        CLUSTERS,
        PlatformConfig::odroid_xu3_a15(),
    ))
    .expect("valid topology");
    let cores: Vec<usize> = (0..CLUSTERS).map(|c| chip.cores(c)).collect();
    let ctxs: Vec<GovernorContext> = (0..CLUSTERS)
        .map(|c| GovernorContext::new(chip.opp_table(c).clone(), cores[c], PERIOD))
        .collect();
    let mut gov = ManyCoreRtm::paper(9, CLUSTERS, bounds).expect("paper config is valid");
    let mut decisions = Vec::with_capacity(CLUSTERS);
    gov.init(&ctxs, &mut decisions);

    let mut report = RunReport::new("rtm-migrate", "mesh", PERIOD);
    report.reserve_frames(FRAMES as usize);
    let mut mesh = Mesh {
        app,
        chip,
        gov,
        report,
        work: cores.iter().map(|&k| vec![WorkSlice::IDLE; k]).collect(),
        cores,
        shares: vec![1.0 / CLUSTERS as f64; CLUSTERS],
        demand: FrameDemand::default(),
        cluster_demands: vec![FrameDemand::default(); CLUSTERS],
        frame: ManyCoreFrameResult::empty(),
        decisions,
    };
    for (c, decision) in mesh.decisions.iter().enumerate() {
        let index = decision.resolve_cluster(mesh.chip.current_opp(c));
        mesh.chip.set_cluster_opp(c, index);
    }

    // Warm-up: ε past its floor, every scratch buffer (demand slots,
    // frame slots, the migration policy's slack buffer) grown to size.
    for epoch in 0..WARMUP {
        mesh.epoch(epoch);
    }
    let migrations_before = mesh.gov.migrations();

    let before = allocation_count();
    for epoch in WARMUP..FRAMES {
        mesh.epoch(epoch);
    }
    let allocated = allocation_count() - before;
    assert_eq!(
        allocated, 0,
        "steady-state many-core epochs must not allocate \
         ({allocated} allocations over {MEASURED} epochs)"
    );

    // The loop did real work: every frame was recorded, the agents
    // reached exploitation, and migration moved shares in the window.
    assert_eq!(mesh.report.frames(), FRAMES);
    assert!((0..CLUSTERS).all(|c| mesh.gov.agent(c).is_exploitation()));
    assert!(mesh.gov.migrations() > migrations_before);
}
