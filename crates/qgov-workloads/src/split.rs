//! Splitting one frame's demand across heterogeneous clusters.
//!
//! On a multi-cluster chip the chip-level coordinator owns a
//! *work-share* vector — the fraction of each frame's demand placed on
//! each cluster. [`split_demand_into`] turns one [`FrameDemand`] plus
//! that vector into per-cluster demands, allocation-free, conserving
//! the total cycle count exactly; [`capacity_shares`] seeds the vector
//! proportionally to each cluster's compute capacity (the natural
//! starting placement on heterogeneous cores).
//!
//! A placement that puts *everything* on one cluster is
//! thread-preserving: the demand is copied through unchanged, so a
//! 1-cluster topology (or a big-only/LITTLE-only static placement) sees
//! bit-for-bit the frames the single-cluster harness would.

use crate::FrameDemand;
use qgov_units::{Cycles, SimTime};

/// Normalises per-cluster capacities into work shares summing to 1
/// (uniform if all capacities are zero or negative).
///
/// # Panics
///
/// Panics if `out.len() != capacities.len()` or both are empty.
pub fn capacity_shares(capacities: &[f64], out: &mut [f64]) {
    assert_eq!(
        capacities.len(),
        out.len(),
        "one share slot per cluster capacity"
    );
    assert!(!capacities.is_empty(), "at least one cluster");
    let total: f64 = capacities
        .iter()
        .filter(|c| c.is_finite() && **c > 0.0)
        .sum();
    if total <= 0.0 {
        let uniform = 1.0 / out.len() as f64;
        out.fill(uniform);
        return;
    }
    for (slot, &capacity) in out.iter_mut().zip(capacities) {
        *slot = if capacity.is_finite() && capacity > 0.0 {
            capacity / total
        } else {
            0.0
        };
    }
}

/// Splits `demand` across clusters by `shares`: cluster `c` receives
/// `shares[c]` of the total CPU cycles spread evenly over its
/// `cores[c]` cores, with memory-stall time scaled by the same share.
/// Total cycles are conserved exactly (integer remainders land on the
/// last active cluster); clusters with a non-positive share receive an
/// empty demand.
///
/// When exactly one cluster holds the whole share, its demand is the
/// unsplit `demand` itself (thread-for-thread), which keeps single
/// cluster topologies and static one-cluster placements bit-identical
/// to the single-cluster harness.
///
/// # Panics
///
/// Panics if `shares`, `cores`, and `out` differ in length, the
/// topology is empty, or any active cluster has zero cores.
pub fn split_demand_into(
    demand: &FrameDemand,
    shares: &[f64],
    cores: &[usize],
    out: &mut [FrameDemand],
) {
    assert!(
        shares.len() == cores.len() && cores.len() == out.len(),
        "shares, cores, and output must be indexed by cluster"
    );
    assert!(!shares.is_empty(), "at least one cluster");

    let active = shares.iter().filter(|s| **s > 0.0).count();
    if active <= 1 {
        // Everything on one cluster (or nothing anywhere): pass the
        // demand through thread-for-thread.
        let target = shares.iter().position(|s| *s > 0.0).unwrap_or(0);
        for (cluster, slot) in out.iter_mut().enumerate() {
            if cluster == target {
                slot.copy_from(demand);
            } else {
                slot.threads.clear();
            }
        }
        return;
    }

    let share_sum: f64 = shares.iter().filter(|s| **s > 0.0).sum();
    let total = demand.total_cycles().count();
    let mem = demand
        .threads
        .iter()
        .map(|t| t.mem_time)
        .fold(SimTime::ZERO, SimTime::max);
    let last_active = shares
        .iter()
        .rposition(|s| *s > 0.0)
        .expect("active > 1 implies a positive share");

    let mut assigned = 0u64;
    for (cluster, slot) in out.iter_mut().enumerate() {
        let share = shares[cluster];
        if share <= 0.0 {
            slot.threads.clear();
            continue;
        }
        assert!(cores[cluster] > 0, "an active cluster needs cores");
        let cycles = if cluster == last_active {
            total - assigned
        } else {
            // `as u64` truncates, which is the floor for the
            // non-negative product.
            let exact = total as f64 * (share / share_sum);
            (exact as u64).min(total - assigned)
        };
        assigned += cycles;
        slot.fill_split_evenly(
            Cycles::new(cycles),
            cores[cluster],
            mem.scale(share / share_sum),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadDemand;

    fn demand() -> FrameDemand {
        FrameDemand::new(vec![
            ThreadDemand::new(Cycles::new(40_000_003), SimTime::from_us(500)),
            ThreadDemand::new(Cycles::new(30_000_001), SimTime::from_us(400)),
            ThreadDemand::new(Cycles::new(20_000_000), SimTime::from_us(300)),
            ThreadDemand::new(Cycles::new(10_000_000), SimTime::from_us(200)),
        ])
    }

    #[test]
    fn capacity_shares_normalise() {
        let mut shares = [0.0; 2];
        capacity_shares(&[8e9, 5.6e9], &mut shares);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(shares[0] > shares[1]);

        capacity_shares(&[0.0, 0.0], &mut shares);
        assert_eq!(shares, [0.5, 0.5]);

        capacity_shares(&[1.0, f64::NAN], &mut shares);
        assert_eq!(shares, [1.0, 0.0]);
    }

    #[test]
    fn split_conserves_total_cycles() {
        let d = demand();
        let mut out = vec![FrameDemand::default(); 3];
        split_demand_into(&d, &[0.57, 0.13, 0.30], &[4, 2, 4], &mut out);
        let split_total: u64 = out.iter().map(|f| f.total_cycles().count()).sum();
        assert_eq!(split_total, d.total_cycles().count());
        assert_eq!(out[0].thread_count(), 4);
        assert_eq!(out[1].thread_count(), 2);
        // Shares order by magnitude.
        assert!(out[0].total_cycles() > out[2].total_cycles());
        assert!(out[2].total_cycles() > out[1].total_cycles());
        // Memory stall scales with the share.
        assert!(out[0].threads[0].mem_time > out[1].threads[0].mem_time);
    }

    #[test]
    fn single_active_share_is_thread_preserving() {
        let d = demand();
        let mut out = vec![FrameDemand::default(); 2];
        split_demand_into(&d, &[0.0, 1.0], &[4, 4], &mut out);
        assert_eq!(out[0].thread_count(), 0);
        assert_eq!(out[1], d);

        split_demand_into(&d, &[1.0, 0.0], &[4, 4], &mut out);
        assert_eq!(out[0], d);
        assert_eq!(out[1].thread_count(), 0);
    }

    #[test]
    fn all_zero_shares_default_to_cluster_zero() {
        let d = demand();
        let mut out = vec![FrameDemand::default(); 2];
        split_demand_into(&d, &[0.0, 0.0], &[4, 4], &mut out);
        assert_eq!(out[0], d);
        assert_eq!(out[1].thread_count(), 0);
    }

    #[test]
    fn splitting_is_allocation_stable() {
        // Re-splitting into the same slots must not lose or duplicate
        // cycles as shares drift (the migration path's invariant).
        let d = demand();
        let mut out = vec![FrameDemand::default(); 2];
        let mut shares = [0.6, 0.4];
        for _ in 0..100 {
            split_demand_into(&d, &shares, &[4, 4], &mut out);
            let total: u64 = out.iter().map(|f| f.total_cycles().count()).sum();
            assert_eq!(total, d.total_cycles().count());
            shares[0] -= 0.005;
            shares[1] += 0.005;
        }
    }
}
