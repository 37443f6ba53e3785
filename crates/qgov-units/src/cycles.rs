//! CPU cycle counts.

use crate::{Freq, SimTime};
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A count of CPU clock cycles.
///
/// Cycle counts are the paper's chosen workload parameter: the RTM's system
/// state is derived from the CPU Cycle Count (CC) read from the performance
/// monitoring unit (Section II-A of Biswas et al., DATE 2017).
///
/// # Examples
///
/// ```
/// use qgov_units::{Cycles, Freq, SimTime};
///
/// let work = Cycles::new(10_000_000);
/// // At 500 MHz, 10 M cycles take 20 ms.
/// assert_eq!(work.time_at(Freq::from_mhz(500)), SimTime::from_ms(20));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Cycles(u64);

impl Cycles {
    /// The zero cycle count.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(count: u64) -> Self {
        Cycles(count)
    }

    /// Creates a cycle count from megacycles.
    #[must_use]
    pub const fn from_mcycles(mc: u64) -> Self {
        Cycles(mc * 1_000_000)
    }

    /// Returns the raw count.
    #[must_use]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Returns the count in megacycles as a float (for reporting).
    #[must_use]
    pub fn as_mcycles(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if the count is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the wall-clock time these cycles take at frequency `f`,
    /// rounded up to the next nanosecond (work cannot finish early).
    ///
    /// # Panics
    ///
    /// Panics if `f` is the zero frequency while the cycle count is
    /// non-zero (a halted clock never retires work), or if the time
    /// exceeds `u64::MAX` nanoseconds (~584 years).
    #[must_use]
    pub fn time_at(self, f: Freq) -> SimTime {
        if self.0 == 0 {
            return SimTime::ZERO;
        }
        assert!(!f.is_zero(), "non-zero work cannot execute at 0 Hz");
        // ns = cycles / (kHz * 1000) * 1e9 = cycles * 1e6 / kHz, rounded up.
        // Every realistic count fits the u64 product; the u128 path
        // serves the rest and gives the same quotient.
        let ns = match self.0.checked_mul(1_000_000) {
            Some(num) => num.div_ceil(f.khz()),
            None => {
                let ns = (self.0 as u128 * 1_000_000).div_ceil(f.khz() as u128);
                u64::try_from(ns).expect("busy time exceeds u64::MAX ns")
            }
        };
        SimTime::from_ns(ns)
    }

    /// Returns the number of cycles a clock at frequency `f` retires in
    /// time `t` (truncating).
    ///
    /// # Panics
    ///
    /// Panics if the count exceeds `u64::MAX` cycles.
    #[must_use]
    pub fn elapsed(f: Freq, t: SimTime) -> Cycles {
        // cycles = kHz * 1000 * ns / 1e9 = kHz * ns / 1e6
        let cycles = f.khz() as u128 * t.as_ns() as u128 / 1_000_000;
        Cycles(u64::try_from(cycles).expect("cycle count exceeds u64::MAX"))
    }

    /// Saturating subtraction; returns [`Cycles::ZERO`] instead of
    /// underflowing.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns the absolute difference between two counts.
    #[must_use]
    pub const fn abs_diff(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.abs_diff(rhs.0))
    }

    /// Returns the ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[must_use]
    pub fn ratio(self, other: Cycles) -> f64 {
        assert!(!other.is_zero(), "division by zero cycle count");
        self.0 as f64 / other.0 as f64
    }

    /// Scales the count by a non-negative factor, rounding to the nearest
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scale(self, factor: f64) -> Cycles {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Cycles((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    /// # Panics
    ///
    /// Panics with "Cycles addition overflowed" if the sum exceeds
    /// `u64::MAX`, in every build profile.
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(
            self.0
                .checked_add(rhs.0)
                .expect("Cycles addition overflowed"),
        )
    }
}

impl AddAssign for Cycles {
    /// # Panics
    ///
    /// Panics like [`Add`].
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// # Panics
    ///
    /// Panics with "Cycles subtraction underflowed" if `rhs > self`, in
    /// every build profile (`saturating_sub` clamps at zero instead).
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(
            self.0
                .checked_sub(rhs.0)
                .expect("Cycles subtraction underflowed"),
        )
    }
}

impl SubAssign for Cycles {
    /// # Panics
    ///
    /// Panics like [`Sub`].
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    /// # Panics
    ///
    /// Panics with "Cycles multiplication overflowed" if the product
    /// exceeds `u64::MAX`, in every build profile.
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(
            self.0
                .checked_mul(rhs)
                .expect("Cycles multiplication overflowed"),
        )
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2} Mcycles", self.as_mcycles())
        } else {
            write!(f, "{} cycles", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The release profile has no overflow checks: without the checked
    // operators these wrapped silently there.
    #[test]
    #[should_panic(expected = "Cycles addition overflowed")]
    fn add_overflow_panics_instead_of_wrapping() {
        let _ = Cycles::new(u64::MAX) + Cycles::new(1);
    }

    #[test]
    #[should_panic(expected = "Cycles addition overflowed")]
    fn add_assign_overflow_panics_instead_of_wrapping() {
        let mut t = Cycles::new(u64::MAX);
        t += Cycles::new(1);
    }

    #[test]
    #[should_panic(expected = "Cycles subtraction underflowed")]
    fn sub_underflow_panics_instead_of_wrapping() {
        let _ = Cycles::new(1) - Cycles::new(2);
    }

    #[test]
    #[should_panic(expected = "Cycles subtraction underflowed")]
    fn sub_assign_underflow_panics_instead_of_wrapping() {
        let mut t = Cycles::new(1);
        t -= Cycles::new(2);
    }

    #[test]
    #[should_panic(expected = "Cycles multiplication overflowed")]
    fn mul_overflow_panics_instead_of_wrapping() {
        let _ = Cycles::new(u64::MAX / 2 + 1) * 2;
    }

    #[test]
    #[should_panic(expected = "Cycles addition overflowed")]
    fn sum_overflow_panics_instead_of_wrapping() {
        let _: Cycles = [Cycles::new(u64::MAX), Cycles::new(1)].into_iter().sum();
    }

    #[test]
    fn time_at_exact_division() {
        let c = Cycles::from_mcycles(20);
        assert_eq!(c.time_at(Freq::from_mhz(1000)), SimTime::from_ms(20));
        assert_eq!(c.time_at(Freq::from_mhz(2000)), SimTime::from_ms(10));
    }

    #[test]
    fn time_at_rounds_up() {
        // 1 cycle at 3 kHz: 1e6/3 ns = 333333.33 -> 333334 ns.
        let t = Cycles::new(1).time_at(Freq::from_khz(3));
        assert_eq!(t, SimTime::from_ns(333_334));
    }

    #[test]
    fn zero_work_takes_no_time_at_any_freq() {
        assert_eq!(Cycles::ZERO.time_at(Freq::ZERO), SimTime::ZERO);
        assert_eq!(Cycles::ZERO.time_at(Freq::from_mhz(200)), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "0 Hz")]
    fn nonzero_work_at_zero_freq_panics() {
        let _ = Cycles::new(1).time_at(Freq::ZERO);
    }

    #[test]
    #[should_panic(expected = "exceeds u64::MAX ns")]
    fn time_at_overflow_panics_instead_of_wrapping() {
        // u64::MAX cycles at 200 MHz is ~2.9e12 s: no SimTime holds it.
        let _ = Cycles::new(u64::MAX).time_at(Freq::from_mhz(200));
    }

    #[test]
    #[should_panic(expected = "cycle count exceeds u64::MAX")]
    fn elapsed_overflow_panics_instead_of_wrapping() {
        let _ = Cycles::elapsed(Freq::from_mhz(2_000), SimTime::from_ns(u64::MAX));
    }

    mod time_at_fast_path {
        use super::*;
        use proptest::prelude::*;

        /// The u128 formula every `time_at` result must equal.
        fn reference(cycles: u64, khz: u64) -> u128 {
            (cycles as u128 * 1_000_000).div_ceil(khz as u128)
        }

        /// The largest count whose `× 10⁶` product still fits a u64.
        const BOUNDARY: u64 = u64::MAX / 1_000_000;

        proptest! {
            // Counts on both sides of the u64 product boundary, at
            // frequencies from 1 kHz up; only quotients that fit a u64
            // are compared (the rest must panic, pinned above).
            #[test]
            fn time_at_equals_the_u128_formula(
                offset in 0u64..1_000_000,
                side in 0u8..2,
                small in 1u64..u64::MAX,
                khz in 1u64..10_000_000,
            ) {
                let near = if side == 1 { BOUNDARY + 1 + offset } else { BOUNDARY - offset };
                for cycles in [near, small % (BOUNDARY + 1) + 1] {
                    let expect = reference(cycles, khz);
                    if let Ok(ns) = u64::try_from(expect) {
                        prop_assert_eq!(
                            Cycles::new(cycles).time_at(Freq::from_khz(khz)),
                            SimTime::from_ns(ns)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn elapsed_inverts_time_at() {
        let f = Freq::from_mhz(1400);
        let c = Cycles::from_mcycles(7);
        let t = c.time_at(f);
        let back = Cycles::elapsed(f, t);
        // Round-trip may gain at most a handful of cycles from the
        // round-up in time_at.
        assert!(back >= c);
        assert!(back.count() - c.count() < 2, "{back:?} vs {c:?}");
    }

    #[test]
    fn arithmetic_and_ratio() {
        let a = Cycles::new(300);
        let b = Cycles::new(200);
        assert_eq!(a + b, Cycles::new(500));
        assert_eq!(a - b, Cycles::new(100));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(a.abs_diff(b), Cycles::new(100));
        assert_eq!(a.ratio(b), 1.5);
        assert_eq!(a * 2, Cycles::new(600));
        assert_eq!(a / 3, Cycles::new(100));
    }

    #[test]
    fn display_uses_natural_unit() {
        assert_eq!(Cycles::new(42).to_string(), "42 cycles");
        assert_eq!(Cycles::from_mcycles(3).to_string(), "3.00 Mcycles");
    }
}
