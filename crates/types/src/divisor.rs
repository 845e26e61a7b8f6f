//! Division by a divisor fixed at construction: a shift when it is a power
//! of two.

/// A `u64` divisor prepared once: `n / d` and `n % d` are a shift and a
/// mask when `d` is a power of two (the stacked line count, the Alloy set
/// count and the MemCache line count of every Table I machine at a
/// power-of-two scale), and the hardware `/` and `%` otherwise. Both
/// agree with division by `d.get()` for every `u64` numerator.
///
/// # Examples
///
/// ```
/// use cameo_types::Divisor;
///
/// let d = Divisor::new(1 << 19);
/// let n = 123_456_789_u64;
/// assert_eq!(n / d, n / (1 << 19));
/// assert_eq!(n % d, n % (1 << 19));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Divisor {
    d: u64,
    /// `log₂ d` when `d` is a power of two, else `u32::MAX`.
    shift: u32,
}

impl Divisor {
    /// Prepares division by `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub const fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be positive");
        let shift = if d.is_power_of_two() {
            d.trailing_zeros()
        } else {
            u32::MAX
        };
        Self { d, shift }
    }

    /// The divisor.
    #[inline]
    pub const fn get(self) -> u64 {
        self.d
    }
}

impl std::ops::Div<Divisor> for u64 {
    type Output = u64;

    /// `self / d`.
    #[inline]
    fn div(self, d: Divisor) -> u64 {
        if d.shift == u32::MAX {
            self / d.d
        } else {
            self >> d.shift
        }
    }
}

impl std::ops::Rem<Divisor> for u64 {
    type Output = u64;

    /// `self % d`.
    #[inline]
    fn rem(self, d: Divisor) -> u64 {
        if d.shift == u32::MAX {
            self % d.d
        } else {
            self & (d.d - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(d: u64, n: u64) {
        let divisor = Divisor::new(d);
        assert_eq!(n / divisor, n / d, "{n} / {d}");
        assert_eq!(n % divisor, n % d, "{n} % {d}");
    }

    #[test]
    fn edge_cases_match_hardware_division() {
        for d in [1, 2, 3, 31, 1 << 19, 3 << 19, 1 << 63, u64::MAX] {
            for n in [0, d - 1, d, u64::MAX] {
                check(d, n);
            }
            assert_eq!(Divisor::new(d).get(), d);
        }
    }

    #[test]
    #[should_panic(expected = "divisor must be positive")]
    fn zero_divisor_rejected() {
        Divisor::new(0);
    }

    proptest::proptest! {
        /// Divisors of every magnitude (a random word shifted right by a
        /// random amount) and every power of two.
        #[test]
        fn matches_hardware_division(
            shift in 0u32..64,
            raw in proptest::strategy::any::<u64>(),
            n in proptest::strategy::any::<u64>(),
        ) {
            check((raw >> shift).max(1), n);
            check(1 << shift, n);
        }
    }
}
