//! Copies of the experiment harness's crate-private epoch glue
//! (`qgov_bench::harness`), which the benchmark-side epoch loops need
//! in order to step the same public layer functions the harness steps.
//! The traced run checks that those loops reproduce the harness's
//! reports bit for bit, which pins these copies to the originals.

use qgov_governors::VfDecision;
use qgov_sim::{Actuation, FaultInjector, Platform, SimError, VfDomain, WorkSlice};
use qgov_workloads::FrameDemand;

/// Applies a decision, resolving per-core requests to the cluster
/// maximum on shared-rail hardware.
pub fn apply_decision(platform: &mut Platform, decision: &VfDecision) -> Result<(), SimError> {
    match (platform.vf().domain(), decision) {
        (_, VfDecision::NoChange) => Ok(()),
        (_, VfDecision::Cluster(i)) => platform.try_set_cluster_opp(*i),
        (VfDomain::PerCore, VfDecision::PerCore(per)) => {
            for (core, &opp) in per.iter().enumerate() {
                platform.try_set_core_opp(core, opp)?;
            }
            Ok(())
        }
        (VfDomain::PerCluster, VfDecision::PerCore(_)) => {
            let resolved = decision.resolve_cluster(platform.current_opp());
            platform.try_set_cluster_opp(resolved)
        }
    }
}

/// Maps a frame's per-thread demands onto per-core work slices
/// (surplus threads fold onto the last core).
pub fn to_work_slices_into(demand: &FrameDemand, work: &mut [WorkSlice]) {
    work.fill(WorkSlice::IDLE);
    let cores = work.len();
    for (i, t) in demand.threads.iter().enumerate() {
        let core = i.min(cores - 1);
        work[core] = WorkSlice::new(
            work[core].cpu_cycles + t.cpu_cycles,
            work[core].mem_time + t.mem_time,
        );
    }
}

/// Rewrites a decision through the injector's actuation fault for
/// this epoch.
pub fn faulted_decision(
    injector: &mut FaultInjector,
    epoch: u64,
    cluster: usize,
    current_opp: usize,
    decision: VfDecision,
) -> VfDecision {
    match injector.actuation(epoch, cluster) {
        Actuation::Honest => {
            if let Some(delayed) = injector.take_latched(cluster) {
                if matches!(decision, VfDecision::NoChange) {
                    return VfDecision::Cluster(delayed);
                }
            }
            decision
        }
        Actuation::Ignored => VfDecision::NoChange,
        Actuation::Clamped(max_opp) => match decision {
            VfDecision::NoChange => VfDecision::NoChange,
            other => VfDecision::Cluster(other.resolve_cluster(current_opp).min(max_opp)),
        },
        Actuation::Latched => match decision {
            VfDecision::NoChange => injector
                .take_latched(cluster)
                .map_or(VfDecision::NoChange, VfDecision::Cluster),
            other => {
                let requested = other.resolve_cluster(current_opp);
                injector
                    .exchange_latched(cluster, requested)
                    .map_or(VfDecision::NoChange, VfDecision::Cluster)
            }
        },
    }
}
