//! Property-based tests on the platform simulator: physical invariants
//! that must hold for arbitrary workloads and operating points.

use proptest::prelude::*;
use qgov_sim::{
    ClusterConfig, DvfsConfig, FrameResult, ManyCoreFrameResult, ManyCorePlatform, Platform,
    PlatformConfig, PowerModel, PowerSensor, SensorConfig, SensorReading, ThermalConfig,
    ThermalModel, Topology, VfController, VfDomain, WorkSlice,
};
use qgov_units::{Cycles, Energy, Power, SimTime, Temp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn platform() -> Platform {
    Platform::new(PlatformConfig {
        sensor: SensorConfig::ideal(),
        dvfs: DvfsConfig::free(),
        ..PlatformConfig::odroid_xu3_a15()
    })
    .unwrap()
}

/// The eager reading [`PowerSensor::read_frame`] replaced, kept as the
/// reference: close the window, then draw the Box–Muller sample and
/// quantise at once.
struct EagerSensor {
    config: SensorConfig,
    rng: StdRng,
    frame_energy: Energy,
    frame_time: SimTime,
}

impl EagerSensor {
    fn new(config: SensorConfig) -> Self {
        EagerSensor {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            frame_energy: Energy::ZERO,
            frame_time: SimTime::ZERO,
        }
    }

    fn integrate(&mut self, power: Power, span: SimTime) {
        self.frame_energy += power * span;
        self.frame_time += span;
    }

    fn read_frame_average(&mut self) -> Power {
        let true_avg = if self.frame_time.is_zero() {
            0.0
        } else {
            self.frame_energy.as_joules() / self.frame_time.as_secs_f64()
        };
        self.frame_energy = Energy::ZERO;
        self.frame_time = SimTime::ZERO;
        let noisy = if self.config.noise_fraction > 0.0 {
            let g = loop {
                let u1: f64 = self.rng.gen::<f64>();
                if u1 > f64::MIN_POSITIVE {
                    let u2: f64 = self.rng.gen::<f64>();
                    break (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                }
            };
            (true_avg * (1.0 + self.config.noise_fraction * g)).max(0.0)
        } else {
            true_avg
        };
        let quantised = if self.config.quantum_mw > 0.0 {
            let q = self.config.quantum_mw / 1_000.0;
            (noisy / q).round() * q
        } else {
            noisy
        };
        Power::from_watts(quantised)
    }
}

/// The frame kernel transcribed from its model, as the reference for
/// [`Platform::run_frame_into`]: every core's busy time from its own
/// slice and frequency, and its power from its own
/// [`PowerModel::core_power`] calls, with the uncore from
/// [`PowerModel::uncore_power`]; no value is reused between cores or
/// frames.
struct ReferenceKernel {
    config: PlatformConfig,
    vf: VfController,
    sensor: PowerSensor,
    thermal: ThermalModel,
    pending: SimTime,
    /// Per core: cycles, busy time and idle time recorded so far.
    pmu: Vec<(Cycles, SimTime, SimTime)>,
    total_energy: Energy,
}

impl ReferenceKernel {
    fn new(config: PlatformConfig) -> Self {
        ReferenceKernel {
            vf: VfController::new(
                config.opp_table.clone(),
                config.vf_domain,
                config.cores,
                config.dvfs.clone(),
            )
            .unwrap(),
            sensor: PowerSensor::new(config.sensor.clone()),
            thermal: ThermalModel::new(config.thermal.clone()),
            pending: SimTime::ZERO,
            pmu: vec![(Cycles::ZERO, SimTime::ZERO, SimTime::ZERO); config.cores],
            total_energy: Energy::ZERO,
            config,
        }
    }

    fn set_core_opp(&mut self, core: usize, index: usize) {
        self.pending += self.vf.set_core_opp(core, index).unwrap();
    }

    fn frame(&mut self, work: &[WorkSlice], period: SimTime) -> FrameResult {
        let table = &self.config.opp_table;
        let model = &self.config.power_model;
        let overhead = std::mem::replace(&mut self.pending, SimTime::ZERO);
        let opp_of = |core: usize| table.get(self.vf.core_opp(core).unwrap()).unwrap();
        let busy: Vec<SimTime> = work
            .iter()
            .enumerate()
            .map(|(core, slice)| slice.cpu_cycles.time_at(opp_of(core).freq) + slice.mem_time)
            .collect();
        let frame_time = busy.iter().copied().fold(SimTime::ZERO, SimTime::max) + overhead;
        let wall_time = frame_time.max(period);
        let temp = self.thermal.temperature();
        let mut energy = Energy::ZERO;
        for (core, &b) in busy.iter().enumerate() {
            let opp = opp_of(core);
            let active = if core == 0 { b + overhead } else { b }.min(wall_time);
            let idle = wall_time - active;
            energy += model.core_power(opp, 1.0, temp).total() * active
                + model.core_power(opp, 0.0, temp).total() * idle;
            let pmu = &mut self.pmu[core];
            pmu.0 += work[core].cpu_cycles;
            pmu.1 += b;
            pmu.2 += wall_time.saturating_sub(b);
        }
        let cluster_opp = self.vf.cluster_opp();
        energy += model
            .uncore_power(table.get(cluster_opp).unwrap(), temp)
            .total()
            * wall_time;
        let avg_power = Power::from_watts(energy.as_joules() / wall_time.as_secs_f64());
        self.sensor.integrate(avg_power, wall_time);
        self.total_energy += energy;
        FrameResult {
            frame_time,
            wall_time,
            period,
            overhead,
            per_core_busy: busy,
            per_core_cycles: work.iter().map(|s| s.cpu_cycles).collect(),
            energy,
            avg_power,
            sensor: self.sensor.read_frame(),
            temperature: self.thermal.step(avg_power, wall_time),
            cluster_opp,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Platform::run_frame_into` equals the reference kernel bit for
    /// bit — frame and wall time, overhead, busy times, cycles, energy,
    /// average power, the sensor reading and temperature of every
    /// frame, then the PMU counters, total energy and transition
    /// accounting — on A15 and A7 quads of 1–5 cores, per-cluster and
    /// per-core domains, mixed OPPs, idle cores, runs of equal slices
    /// beside unequal ones, non-zero governor overhead on top of
    /// transition costs, over-running frames, and dies held below or
    /// above the 25 °C leakage knee by the ambient temperature.
    #[test]
    fn frame_kernel_equals_the_per_core_reference(
        (big, per_core, cores) in (0u8..2, 0u8..2, 1usize..6),
        (ambient, typical_dvfs) in (0usize..5, 0u8..2),
        pool in proptest::collection::vec((0u64..60, 0u64..5_000), 3),
        frames in proptest::collection::vec(
            (proptest::collection::vec((0usize..19, 0usize..4), 5), 0u64..400, 1u64..60),
            1..25),
    ) {
        let base = if big == 1 {
            PlatformConfig::odroid_xu3_a15()
        } else {
            PlatformConfig::odroid_xu3_little()
        };
        let config = PlatformConfig {
            cores,
            vf_domain: if per_core == 1 { VfDomain::PerCore } else { VfDomain::PerCluster },
            dvfs: if typical_dvfs == 1 { DvfsConfig::typical() } else { DvfsConfig::free() },
            thermal: ThermalConfig {
                ambient: Temp::from_celsius([0.0, 10.0, 24.0, 35.0, 60.0][ambient]),
                ..ThermalConfig::odroid_xu3()
            },
            ..base
        };
        let opps = config.opp_table.len();
        let mut platform = Platform::new(config.clone()).unwrap();
        let mut reference = ReferenceKernel::new(config);
        let mut out = FrameResult::empty();
        for (per_core_picks, overhead_us, period_ms) in &frames {
            let mut work = Vec::with_capacity(cores);
            for (core, &(opp, slice)) in per_core_picks.iter().take(cores).enumerate() {
                platform.try_set_core_opp(core, opp % opps).unwrap();
                reference.set_core_opp(core, opp % opps);
                work.push(match pool.get(slice) {
                    Some(&(mcycles, mem_us)) => {
                        WorkSlice::new(Cycles::from_mcycles(mcycles), SimTime::from_us(mem_us))
                    }
                    None => WorkSlice::IDLE,
                });
            }
            if *overhead_us < 200 {
                platform.add_overhead(SimTime::from_us(*overhead_us));
                reference.pending += SimTime::from_us(*overhead_us);
            }
            let period = SimTime::from_ms(*period_ms);
            platform.run_frame_into(&work, period, &mut out).unwrap();
            let expect = reference.frame(&work, period);
            prop_assert_eq!(out.frame_time, expect.frame_time);
            prop_assert_eq!(out.wall_time, expect.wall_time);
            prop_assert_eq!(out.overhead, expect.overhead);
            prop_assert_eq!(&out.per_core_busy, &expect.per_core_busy);
            prop_assert_eq!(&out.per_core_cycles, &expect.per_core_cycles);
            prop_assert_eq!(out.energy.as_joules().to_bits(), expect.energy.as_joules().to_bits());
            prop_assert_eq!(out.avg_power.as_watts().to_bits(), expect.avg_power.as_watts().to_bits());
            prop_assert_eq!(
                out.measured_power().as_watts().to_bits(),
                expect.measured_power().as_watts().to_bits()
            );
            prop_assert_eq!(
                out.temperature.as_celsius().to_bits(),
                expect.temperature.as_celsius().to_bits()
            );
            prop_assert_eq!(out.cluster_opp, expect.cluster_opp);
        }
        for (core, &(cycles, busy, idle)) in reference.pmu.iter().enumerate() {
            let pmu = platform.pmu(core);
            prop_assert_eq!((pmu.cycles(), pmu.busy_time(), pmu.idle_time()), (cycles, busy, idle));
        }
        prop_assert_eq!(
            platform.total_energy().as_joules().to_bits(),
            reference.total_energy.as_joules().to_bits()
        );
        prop_assert_eq!(platform.vf().transitions(), reference.vf.transitions());
        prop_assert_eq!(platform.vf().total_latency(), reference.vf.total_latency());
    }

    /// A deferred reading evaluates to the eager reading bit for bit,
    /// whenever it is evaluated: at once, twice, after later frames, or
    /// never — skipping or repeating one reading leaves every later
    /// reading unchanged. Noise fractions and quanta include zero, and
    /// windows include empty ones.
    #[test]
    fn deferred_reading_equals_eager_reading(
        seed in 0u64..u64::MAX,
        noise in -0.5f64..0.99,
        quantum in -100.0f64..200.0,
        frames in proptest::collection::vec(
            (proptest::collection::vec((0.0f64..20.0, 0u64..100_000), 0..4), 0u8..4),
            1..40),
    ) {
        let config = SensorConfig {
            quantum_mw: quantum.max(0.0),
            noise_fraction: noise.max(0.0),
            seed,
        };
        let mut deferred = PowerSensor::new(config.clone());
        let mut eager = EagerSensor::new(config);
        let mut late: Vec<(SensorReading, Power)> = Vec::new();
        for (window, when) in &frames {
            for &(watts, span_us) in window {
                let (power, span) = (Power::from_watts(watts), SimTime::from_us(span_us));
                deferred.integrate(power, span);
                eager.integrate(power, span);
            }
            let reading = deferred.read_frame();
            let expect = eager.read_frame_average();
            match when {
                0 => prop_assert_eq!(reading.power().as_watts().to_bits(), expect.as_watts().to_bits()),
                1 => {
                    prop_assert_eq!(reading.power().as_watts().to_bits(), expect.as_watts().to_bits());
                    prop_assert_eq!(reading.power().as_watts().to_bits(), expect.as_watts().to_bits());
                }
                2 => late.push((reading, expect)),
                _ => {} // never evaluated
            }
        }
        for (reading, expect) in late {
            prop_assert_eq!(reading.power().as_watts().to_bits(), expect.as_watts().to_bits());
        }
    }

    /// Higher operating points never make a frame slower.
    #[test]
    fn frame_time_monotone_in_opp(
        mcycles in 1u64..100,
        opp_lo in 0usize..19,
        opp_hi in 0usize..19,
    ) {
        prop_assume!(opp_lo < opp_hi);
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(mcycles)); 4];
        let period = SimTime::from_ms(1_000);

        let mut p_lo = platform();
        p_lo.set_cluster_opp(opp_lo);
        let slow = p_lo.run_frame(&work, period).unwrap();

        let mut p_hi = platform();
        p_hi.set_cluster_opp(opp_hi);
        let fast = p_hi.run_frame(&work, period).unwrap();

        prop_assert!(fast.frame_time <= slow.frame_time,
            "opp {opp_hi} slower than opp {opp_lo}");
    }

    /// Energy over a fixed wall window rises with operating point for
    /// fully-busy frames (racing costs more when there is no idle to
    /// harvest).
    #[test]
    fn busy_energy_monotone_in_opp(opp in 0usize..18) {
        let period = SimTime::from_ms(100);
        // Enough work to keep even 2 GHz busy the whole period.
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(250)); 4];

        let run = |idx: usize| {
            let mut p = platform();
            p.set_cluster_opp(idx);
            let r = p.run_frame(&work, period).unwrap();
            // Normalise to energy per unit time (frames last different spans).
            r.energy.as_joules() / r.wall_time.as_secs_f64()
        };
        prop_assert!(run(opp + 1) > run(opp), "avg power must rise with OPP");
    }

    /// Energy is always positive and finite; wall time always covers the
    /// period.
    #[test]
    fn frame_results_are_physical(
        mcycles in proptest::collection::vec(0u64..200, 4),
        mem_us in proptest::collection::vec(0u64..10_000, 4),
        opp in 0usize..19,
        period_ms in 1u64..200,
    ) {
        let mut p = platform();
        p.set_cluster_opp(opp);
        let work: Vec<WorkSlice> = mcycles
            .iter()
            .zip(&mem_us)
            .map(|(&mc, &us)| WorkSlice::new(Cycles::from_mcycles(mc), SimTime::from_us(us)))
            .collect();
        let r = p.run_frame(&work, SimTime::from_ms(period_ms)).unwrap();
        prop_assert!(r.energy.as_joules() > 0.0);
        prop_assert!(r.energy.as_joules().is_finite());
        prop_assert!(r.wall_time >= SimTime::from_ms(period_ms));
        prop_assert!(r.wall_time >= r.frame_time);
        prop_assert!(r.frame_time >= *r.per_core_busy.iter().max().unwrap());
        for c in 0..4 {
            let u = r.utilization(c);
            prop_assert!((0.0..=1.0).contains(&u));
        }
    }

    /// The simulator is deterministic: identical command sequences give
    /// identical results.
    #[test]
    fn identical_runs_are_bit_identical(
        opps in proptest::collection::vec(0usize..19, 1..20),
        mcycles in 1u64..100,
    ) {
        let run = || {
            let mut p = Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap();
            let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(mcycles)); 4];
            let mut log = Vec::new();
            for &opp in &opps {
                p.set_cluster_opp(opp);
                let r = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
                log.push((r.frame_time, r.energy.as_joules().to_bits(),
                          r.measured_power().as_watts().to_bits()));
            }
            log
        };
        prop_assert_eq!(run(), run());
    }

    /// Per-core busy time equals cycles/f + mem for every core.
    #[test]
    fn busy_time_matches_two_component_model(
        mcycles in 1u64..500,
        mem_us in 0u64..20_000,
        opp in 0usize..19,
    ) {
        let mut p = platform();
        p.set_cluster_opp(opp);
        let slice = WorkSlice::new(Cycles::from_mcycles(mcycles), SimTime::from_us(mem_us));
        let work = vec![slice; 4];
        let r = p.run_frame(&work, SimTime::from_ms(1)).unwrap();
        let freq = p.opp_table().get(opp).unwrap().freq;
        let expect = Cycles::from_mcycles(mcycles).time_at(freq) + SimTime::from_us(mem_us);
        for c in 0..4 {
            prop_assert_eq!(r.per_core_busy[c], expect);
        }
    }

    /// Under a per-core V-F domain, a faster sibling never slows the
    /// barrier.
    #[test]
    fn per_core_speedup_never_hurts(base_opp in 0usize..18) {
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(50)); 4];
        let period = SimTime::from_ms(1_000);
        let make = |boost: bool| {
            let mut p = Platform::new(PlatformConfig {
                vf_domain: VfDomain::PerCore,
                sensor: SensorConfig::ideal(),
                dvfs: DvfsConfig::free(),
                ..PlatformConfig::odroid_xu3_a15()
            })
            .unwrap();
            for c in 0..4 {
                p.try_set_core_opp(c, base_opp).unwrap();
            }
            if boost {
                p.try_set_core_opp(2, 18).unwrap();
            }
            p.run_frame(&work, period).unwrap().frame_time
        };
        prop_assert!(make(true) <= make(false));
    }

    /// The many-core chip's accounting against its own clusters, on
    /// random 1–6-cluster topologies mixing A15 and A7 quads under
    /// typical DVFS costs, random work and random per-cluster OPP
    /// sequences: chip energy is the in-order sum of the cluster
    /// energies bit for bit, chip frame and wall time are the cluster
    /// maxima, and the transition count is the number of OPP changes
    /// each cluster went through (boot OPP 0, every frame's OPP, the
    /// final retarget).
    #[test]
    fn manycore_accounting_matches_its_clusters(
        big in proptest::collection::vec(0u8..2, 1..7),
        frames in proptest::collection::vec(
            proptest::collection::vec((0u64..80, 0u64..8_000, 0usize..19), 6),
            1..12),
        final_opps in proptest::collection::vec(0usize..19, 6),
    ) {
        let clusters: Vec<ClusterConfig> = big
            .iter()
            .enumerate()
            .map(|(c, &b)| {
                let platform = if b == 1 {
                    PlatformConfig::odroid_xu3_a15()
                } else {
                    PlatformConfig::odroid_xu3_little()
                };
                ClusterConfig::new(
                    format!("c{c}"),
                    PlatformConfig { dvfs: DvfsConfig::typical(), ..platform },
                )
            })
            .collect();
        let n = clusters.len();
        let mut chip = ManyCorePlatform::new(Topology::new(clusters)).unwrap();
        let mut out = ManyCoreFrameResult::empty();
        let mut last_opp = vec![0usize; n];
        let mut changes = 0u64;
        let mut work: Vec<Vec<WorkSlice>> = (0..n).map(|c| vec![WorkSlice::IDLE; chip.cores(c)]).collect();
        for frame in &frames {
            for (c, &(mcycles, mem_us, opp)) in frame.iter().take(n).enumerate() {
                chip.set_cluster_opp(c, opp % chip.opp_table(c).len());
                for (core, slice) in work[c].iter_mut().enumerate() {
                    *slice = WorkSlice::new(
                        Cycles::from_mcycles(mcycles * (core as u64 + 1) / 4),
                        SimTime::from_us(mem_us),
                    );
                }
            }
            chip.run_frame_into(&work, SimTime::from_ms(40), &mut out).unwrap();

            let mut energy = Energy::ZERO;
            let mut frame_time = SimTime::ZERO;
            let mut wall_time = SimTime::ZERO;
            for (c, cluster) in out.clusters.iter().enumerate() {
                energy += cluster.energy;
                frame_time = frame_time.max(cluster.frame_time);
                wall_time = wall_time.max(cluster.wall_time);
                changes += u64::from(cluster.cluster_opp != last_opp[c]);
                last_opp[c] = cluster.cluster_opp;
            }
            prop_assert_eq!(out.energy.as_joules().to_bits(), energy.as_joules().to_bits());
            prop_assert_eq!(out.frame_time, frame_time);
            prop_assert_eq!(out.wall_time, wall_time);
        }
        for (c, &opp) in final_opps.iter().take(n).enumerate() {
            chip.set_cluster_opp(c, opp % chip.opp_table(c).len());
            changes += u64::from(chip.current_opp(c) != last_opp[c]);
        }
        prop_assert_eq!(chip.total_transitions(), changes);
    }
}
