//! On-board power sensing.
//!
//! "Power is measured from on-board power sensors each frame and
//! subsequently, the energy is calculated by multiplying average power
//! with execution time" (Section III). The XU3's INA231 sensors deliver
//! quantised readings with measurement noise; this module reproduces
//! both so governors and experiments see realistic telemetry while the
//! simulator separately tracks ground-truth energy.

use qgov_units::{Energy, Power, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Measurement characteristics of the power sensor.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SensorConfig {
    /// Reading resolution in milliwatts (readings round to a multiple).
    pub quantum_mw: f64,
    /// Relative Gaussian noise (standard deviation as a fraction of the
    /// reading). Zero for an ideal sensor.
    pub noise_fraction: f64,
    /// Seed for the noise generator.
    pub seed: u64,
}

impl SensorConfig {
    /// INA231-like characteristics: 5 mW resolution, 1 % noise.
    #[must_use]
    pub fn ina231(seed: u64) -> Self {
        SensorConfig {
            quantum_mw: 5.0,
            noise_fraction: 0.01,
            seed,
        }
    }

    /// A perfect sensor (exact readings) for deterministic unit tests.
    #[must_use]
    pub fn ideal() -> Self {
        SensorConfig {
            quantum_mw: 0.0,
            noise_fraction: 0.0,
            seed: 0,
        }
    }
}

impl Default for SensorConfig {
    fn default() -> Self {
        Self::ina231(0)
    }
}

/// One closed frame window's sensor reading, evaluated when it is read.
///
/// [`PowerSensor::read_frame`] records everything that determines the
/// reading — the true window average, the sensor's noise and
/// quantisation settings and the two uniforms its Box–Muller sample
/// consumes — and [`power`](SensorReading::power) turns them into the
/// quantised, noisy watts. Frames whose reading nobody looks at never
/// pay for the `ln`/`sqrt`/`cos`/`round`, yet the seeded stream advances
/// exactly as if every reading were evaluated, so later readings do not
/// depend on which earlier ones were read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReading {
    true_avg: f64,
    noise_fraction: f64,
    quantum_mw: f64,
    u1: f64,
    u2: f64,
}

impl SensorReading {
    /// A reading of exactly `power`: no noise, no quantisation (fault
    /// overrides, test fixtures).
    #[must_use]
    pub fn exact(power: Power) -> Self {
        SensorReading {
            true_avg: power.as_watts(),
            noise_fraction: 0.0,
            quantum_mw: 0.0,
            u1: 0.0,
            u2: 0.0,
        }
    }

    /// The sensor's reading of the window's average power, including
    /// noise and quantisation.
    #[must_use]
    pub fn power(&self) -> Power {
        let noisy = if self.noise_fraction > 0.0 {
            let g = (-2.0 * self.u1.ln()).sqrt() * (std::f64::consts::TAU * self.u2).cos();
            (self.true_avg * (1.0 + self.noise_fraction * g)).max(0.0)
        } else {
            self.true_avg
        };
        let quantised = if self.quantum_mw > 0.0 {
            let q = self.quantum_mw / 1_000.0;
            (noisy / q).round() * q
        } else {
            noisy
        };
        Power::from_watts(quantised)
    }
}

/// Integrates true power over time and reports frame-averaged readings
/// with the configured quantisation and noise.
///
/// # Examples
///
/// ```
/// use qgov_sim::{PowerSensor, SensorConfig};
/// use qgov_units::{Power, SimTime};
///
/// let mut sensor = PowerSensor::new(SensorConfig::ideal());
/// sensor.integrate(Power::from_watts(2.0), SimTime::from_ms(10));
/// sensor.integrate(Power::from_watts(4.0), SimTime::from_ms(10));
/// let reading = sensor.read_frame();
/// assert!((reading.power().as_watts() - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct PowerSensor {
    config: SensorConfig,
    rng: StdRng,
    /// Energy accumulated in the current frame window.
    frame_energy: Energy,
    /// Time accumulated in the current frame window.
    frame_time: SimTime,
    /// Ground-truth energy since construction.
    total_energy: Energy,
}

impl PowerSensor {
    /// Creates a sensor.
    #[must_use]
    pub fn new(config: SensorConfig) -> Self {
        assert!(
            config.quantum_mw.is_finite() && config.quantum_mw >= 0.0,
            "quantum must be finite and non-negative"
        );
        assert!(
            config.noise_fraction.is_finite() && (0.0..1.0).contains(&config.noise_fraction),
            "noise fraction must lie in [0, 1)"
        );
        let rng = StdRng::seed_from_u64(config.seed);
        PowerSensor {
            config,
            rng,
            frame_energy: Energy::ZERO,
            frame_time: SimTime::ZERO,
            total_energy: Energy::ZERO,
        }
    }

    /// Accumulates `power` drawn for `span` into the current frame
    /// window (and the ground-truth total).
    pub fn integrate(&mut self, power: Power, span: SimTime) {
        let e = power * span;
        self.frame_energy += e;
        self.frame_time += span;
        self.total_energy += e;
    }

    /// Closes the current frame window and returns the sensor's reading
    /// of its average power (see [`SensorReading`]). Resets the window
    /// and draws the reading's noise from the seeded stream now.
    pub fn read_frame(&mut self) -> SensorReading {
        let true_avg = if self.frame_time.is_zero() {
            0.0
        } else {
            self.frame_energy.as_joules() / self.frame_time.as_secs_f64()
        };
        self.frame_energy = Energy::ZERO;
        self.frame_time = SimTime::ZERO;
        let (u1, u2) = if self.config.noise_fraction > 0.0 {
            gaussian_uniforms(&mut self.rng)
        } else {
            (0.0, 0.0)
        };
        SensorReading {
            true_avg,
            noise_fraction: self.config.noise_fraction,
            quantum_mw: self.config.quantum_mw,
            u1,
            u2,
        }
    }

    /// Ground-truth energy integrated since construction (what a perfect
    /// lab meter would report; used for Oracle normalisation).
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.total_energy
    }
}

/// The two uniforms of a Box–Muller standard-normal sample, drawn from
/// the seeded stream (`u1` is redrawn until its logarithm is finite).
fn gaussian_uniforms(rng: &mut StdRng) -> (f64, f64) {
    use rand::Rng;
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (u1, rng.gen::<f64>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sensor_reports_exact_average() {
        let mut s = PowerSensor::new(SensorConfig::ideal());
        s.integrate(Power::from_watts(1.0), SimTime::from_ms(30));
        s.integrate(Power::from_watts(3.0), SimTime::from_ms(10));
        // (1*30 + 3*10)/40 = 1.5 W
        assert!((s.read_frame().power().as_watts() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn window_resets_between_frames() {
        let mut s = PowerSensor::new(SensorConfig::ideal());
        s.integrate(Power::from_watts(2.0), SimTime::from_ms(10));
        let _ = s.read_frame();
        s.integrate(Power::from_watts(4.0), SimTime::from_ms(10));
        assert!((s.read_frame().power().as_watts() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_reads_zero() {
        let mut s = PowerSensor::new(SensorConfig::ideal());
        assert_eq!(s.read_frame().power(), Power::ZERO);
    }

    #[test]
    fn total_energy_is_ground_truth_across_frames() {
        let mut s = PowerSensor::new(SensorConfig::ina231(1));
        s.integrate(Power::from_watts(2.0), SimTime::from_secs(1));
        let _ = s.read_frame();
        s.integrate(Power::from_watts(3.0), SimTime::from_secs(1));
        let _ = s.read_frame();
        assert!((s.total_energy().as_joules() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn quantisation_rounds_to_grid() {
        let mut s = PowerSensor::new(SensorConfig {
            quantum_mw: 100.0,
            noise_fraction: 0.0,
            seed: 0,
        });
        s.integrate(Power::from_watts(1.234), SimTime::from_ms(10));
        assert!((s.read_frame().power().as_watts() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_small() {
        let run = |seed| {
            let mut s = PowerSensor::new(SensorConfig {
                quantum_mw: 0.0,
                noise_fraction: 0.01,
                seed,
            });
            let mut readings = Vec::new();
            for _ in 0..100 {
                s.integrate(Power::from_watts(2.0), SimTime::from_ms(10));
                readings.push(s.read_frame().power().as_watts());
            }
            readings
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce identical noise");
        let c = run(43);
        assert_ne!(a, c, "different seeds must differ");
        // 1 % noise: all readings within 10 sigma of truth.
        for r in &a {
            assert!((r - 2.0).abs() < 0.2, "implausible reading {r}");
        }
        // Mean close to truth.
        let mean: f64 = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - 2.0).abs() < 0.01, "biased mean {mean}");
    }

    #[test]
    #[should_panic(expected = "noise fraction")]
    fn bad_noise_fraction_panics() {
        let _ = PowerSensor::new(SensorConfig {
            quantum_mw: 0.0,
            noise_fraction: 1.5,
            seed: 0,
        });
    }
}
