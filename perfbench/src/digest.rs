//! Output digests: every workload folds what it simulated into a
//! 64-bit FNV-1a hash, so a change that is meant only to be faster can
//! show that every simulated statistic is bit-for-bit unchanged.

/// Running FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Fold an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float's exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold a value's `Debug` rendering, which prints every float in
    /// its shortest exact round-trip form.
    pub fn debug<T: std::fmt::Debug + ?Sized>(&mut self, v: &T) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}
