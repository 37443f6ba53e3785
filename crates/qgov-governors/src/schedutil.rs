//! The Linux schedutil governor.
//!
//! Since v4.7 the kernel's default governor: it maps utilisation
//! straight to frequency with fixed headroom,
//! `f_next = 1.25 · f_max · util`, re-evaluated every scheduling period
//! with an optional down-rate limit. Not part of the paper's 2017
//! comparison (ondemand was still the reference), but the natural
//! modern baseline for anyone extending this work.

use crate::{EpochObservation, Governor, GovernorContext, VfDecision};
use qgov_sim::OppTable;
use qgov_units::SimTime;

/// The schedutil governor.
///
/// # Examples
///
/// ```
/// use qgov_governors::SchedutilGovernor;
///
/// let gov = SchedutilGovernor::linux_default();
/// assert!((gov.headroom() - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedutilGovernor {
    headroom: f64,
    /// Epochs a lower request must persist before being honoured
    /// (mimics the kernel's down-rate limiting; 0 = immediate).
    down_rate_limit: u32,
    table: Option<OppTable>,
    current: usize,
    pending_down: Option<(usize, u32)>,
}

impl SchedutilGovernor {
    /// Creates a schedutil governor with the given utilisation headroom
    /// multiplier and down-rate limit (in decision epochs).
    ///
    /// # Panics
    ///
    /// Panics unless `headroom >= 1`.
    #[must_use]
    pub fn new(headroom: f64, down_rate_limit: u32) -> Self {
        assert!(
            headroom.is_finite() && headroom >= 1.0,
            "headroom must be at least 1, got {headroom}"
        );
        SchedutilGovernor {
            headroom,
            down_rate_limit,
            table: None,
            current: 0,
            pending_down: None,
        }
    }

    /// Kernel defaults: 25 % headroom (`util + util/4`), one-epoch
    /// down-rate limit.
    #[must_use]
    pub fn linux_default() -> Self {
        Self::new(1.25, 1)
    }

    /// The headroom multiplier applied to utilisation.
    #[must_use]
    pub fn headroom(&self) -> f64 {
        self.headroom
    }
}

impl Governor for SchedutilGovernor {
    fn name(&self) -> &str {
        "schedutil"
    }

    fn init(&mut self, ctx: &GovernorContext) -> VfDecision {
        self.table = Some(ctx.opp_table().clone());
        self.current = ctx.opp_table().max_index();
        self.pending_down = None;
        VfDecision::Cluster(self.current)
    }

    fn decide(&mut self, obs: &EpochObservation<'_>) -> VfDecision {
        let table = self.table.as_ref().expect("init() must be called first");
        let cores = obs.frame.per_core_busy.len();
        let util = (0..cores)
            .map(|c| obs.frame.utilization(c))
            .fold(0.0f64, f64::max);

        // f_next = headroom * f_max * util, mapped up onto the table.
        let target_freq = table.max_freq().scale((self.headroom * util).min(1.0));
        let target = table.index_at_or_above(target_freq);

        let next = if target >= self.current {
            // Up-scaling is immediate (kernel behaviour).
            self.pending_down = None;
            target
        } else {
            // Down-scaling must persist for down_rate_limit epochs.
            match self.pending_down {
                Some((pending, age)) => {
                    let pending = pending.max(target);
                    if age + 1 >= self.down_rate_limit {
                        self.pending_down = None;
                        pending
                    } else {
                        self.pending_down = Some((pending, age + 1));
                        self.current
                    }
                }
                None => {
                    if self.down_rate_limit == 0 {
                        target
                    } else {
                        self.pending_down = Some((target, 0));
                        self.current
                    }
                }
            }
        };
        self.current = next;
        VfDecision::Cluster(next)
    }

    fn processing_overhead(&self) -> SimTime {
        // A multiply and a table walk inside the scheduler tick.
        SimTime::from_us(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_sim::{FrameResult, OppTable, SensorReading};
    use qgov_units::{Cycles, Energy, Power, SimTime, Temp};

    fn frame_with_load(load: f64) -> FrameResult {
        let period = SimTime::from_ms(40);
        FrameResult {
            frame_time: period.scale(load),
            wall_time: period,
            period,
            overhead: SimTime::ZERO,
            per_core_busy: vec![period.scale(load); 4],
            per_core_cycles: vec![Cycles::from_mcycles(1); 4],
            energy: Energy::from_joules(0.1),
            avg_power: Power::from_watts(1.0),
            sensor: SensorReading::exact(Power::from_watts(1.0)),
            temperature: Temp::default(),
            cluster_opp: 0,
        }
    }

    fn ctx() -> GovernorContext {
        GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40))
    }

    #[test]
    fn maps_utilisation_with_headroom() {
        let mut g = SchedutilGovernor::new(1.25, 0);
        g.init(&ctx());
        // util 0.4: target = 1.25 * 2000 * 0.4 = 1000 MHz -> index 8.
        let f = frame_with_load(0.4);
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &f,
                epoch: 0
            }),
            VfDecision::Cluster(8)
        );
    }

    #[test]
    fn saturates_at_max_for_high_load() {
        let mut g = SchedutilGovernor::new(1.25, 0);
        g.init(&ctx());
        let f = frame_with_load(0.95);
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &f,
                epoch: 0
            }),
            VfDecision::Cluster(18)
        );
    }

    #[test]
    fn up_scaling_is_immediate_down_scaling_is_rate_limited() {
        let mut g = SchedutilGovernor::linux_default();
        g.init(&ctx());
        // Settle low first (down-rate limit 1 epoch): request 0.1 twice.
        let low = frame_with_load(0.1);
        let first = g.decide(&EpochObservation {
            frame: &low,
            epoch: 0,
        });
        assert_eq!(first, VfDecision::Cluster(18), "held for one epoch");
        // util 0.1: target = 1.25 * 2000 * 0.1 = 250 MHz -> 300 MHz (index 1).
        let second = g.decide(&EpochObservation {
            frame: &low,
            epoch: 1,
        });
        assert_eq!(second, VfDecision::Cluster(1), "honoured after the limit");
        // A load spike scales up instantly.
        let high = frame_with_load(0.9);
        let third = g.decide(&EpochObservation {
            frame: &high,
            epoch: 2,
        });
        assert_eq!(third, VfDecision::Cluster(18));
    }

    #[test]
    fn zero_rate_limit_downscales_immediately() {
        let mut g = SchedutilGovernor::new(1.25, 0);
        g.init(&ctx());
        let low = frame_with_load(0.05);
        // 1.25 * 2000 * 0.05 = 125 MHz -> lowest point.
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &low,
                epoch: 0
            }),
            VfDecision::Cluster(0)
        );
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn sub_unity_headroom_panics() {
        let _ = SchedutilGovernor::new(0.9, 1);
    }
}
