//! Totally ordered `f64` key of `tkd-core`'s live value-count tables.

use core::cmp::Ordering;
use core::fmt;

/// An `f64` with total order, usable as a `BTreeSet` key.
///
/// NaN is rejected at construction (the data model already forbids NaN for
/// observed values) and **−0.0 is normalized to +0.0**, so `Eq`/`Ord` are
/// honest and agree exactly with the IEEE `<`/`==` the rest of the system
/// compares values with. Without the normalization, `total_cmp` would
/// order −0.0 below +0.0 and value-equality lookups would miss ties
/// between the two zeros.
#[derive(Clone, Copy, PartialEq)]
pub struct F64Key(f64);

impl F64Key {
    /// Wrap a finite-or-infinite (non-NaN) float.
    ///
    /// Returns `None` for NaN.
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            // IEEE addition sends −0.0 + 0.0 to +0.0 and fixes every other
            // non-NaN value, collapsing the zero signs into one key.
            Some(F64Key(v + 0.0))
        }
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for F64Key {}

impl PartialOrd for F64Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Debug for F64Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_nan() {
        assert!(F64Key::new(f64::NAN).is_none());
    }

    #[test]
    fn orders_like_ieee() {
        let a = F64Key::new(-1.5).unwrap();
        let b = F64Key::new(0.0).unwrap();
        let c = F64Key::new(2.0).unwrap();
        assert!(a < b && b < c);
        assert_eq!(F64Key::new(2.0).unwrap(), c);
        assert_eq!(c.get(), 2.0);
    }

    #[test]
    fn negative_zero_equals_positive_zero() {
        // −0.0 normalizes to +0.0 at construction: the key order must
        // agree with IEEE equality, or range probes for 0.0 would miss
        // objects holding −0.0 (a real IBIG scoring bug caught by
        // `tests/adversarial.rs`).
        let nz = F64Key::new(-0.0).unwrap();
        let pz = F64Key::new(0.0).unwrap();
        assert!(nz == pz);
        assert_eq!(nz.cmp(&pz), Ordering::Equal);
        assert!(nz.get().is_sign_positive());
    }
}
