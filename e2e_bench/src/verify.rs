//! Output verification and the run's failure accounting.
//!
//! Every timed sort is checked outside its timed region: the output must be
//! in order and carry the same multiset fingerprint as the input. Invariant
//! and determinism violations count as failures too, so one bad check fails
//! the whole run.

use std::fmt::Debug;
use tlmm_scratchpad::splitmix64;

/// Order-independent fingerprint of a multiset of keys: length, wrapping
/// sum, xor and a wrapping sum of mixed keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    len: usize,
    sum: u64,
    xor: u64,
    mixed: u64,
}

impl Fingerprint {
    pub fn of(v: &[u64]) -> Fingerprint {
        let mut f = Fingerprint {
            len: v.len(),
            sum: 0,
            xor: 0,
            mixed: 0,
        };
        for &x in v {
            f.sum = f.sum.wrapping_add(x);
            f.xor ^= x;
            f.mixed = f.mixed.wrapping_add(splitmix64(x));
        }
        f
    }
}

/// Counts attempted operations and failures of one run.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// Self-check hook: corrupt the next checked output before checking
    /// it, to show that the check catches it.
    pub corrupt_next: bool,
}

impl Checker {
    /// Check one sort's output against its input's fingerprint.
    pub fn output(&mut self, what: &str, out: &mut [u64], expect: Fingerprint) {
        self.attempted += 1;
        if self.corrupt_next && !out.is_empty() {
            self.corrupt_next = false;
            out[out.len() / 2] ^= 1;
        }
        let sorted = out.windows(2).all(|w| w[0] <= w[1]);
        let same = Fingerprint::of(out) == expect;
        if !(sorted && same) {
            self.failed += 1;
            eprintln!("FAILED {what}: sorted={sorted} fingerprint_matches={same}");
        }
    }

    /// An operation that returned an error.
    pub fn op_failed(&mut self, what: &str, err: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED {what}: {err}");
    }

    /// An invariant of the run; a violation fails the run.
    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("VIOLATION {}", what());
        }
    }

    /// Determinism guard: `now` must equal the first value seen in `first`.
    pub fn same<T: PartialEq + Debug>(&mut self, first: &mut Option<T>, now: T, what: &str) {
        match first {
            None => *first = Some(now),
            Some(f) => {
                let ok = *f == now;
                self.invariant(ok, || format!("{what} drifted: {f:?} then {now:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_order_and_catches_a_changed_key() {
        let a = [5u64, 1, 9, 3];
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&[1, 3, 5, 9]));
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&[1, 3, 5, 8]));
    }

    #[test]
    fn corrupted_output_is_counted() {
        let input = [4u64, 2, 8, 6];
        let fp = Fingerprint::of(&input);
        let mut ck = Checker::default();
        ck.output("clean", &mut [2, 4, 6, 8], fp);
        assert_eq!((ck.attempted, ck.failed), (1, 0));
        ck.corrupt_next = true;
        ck.output("corrupted", &mut [2, 4, 6, 8], fp);
        assert_eq!((ck.attempted, ck.failed), (2, 1));
    }
}
