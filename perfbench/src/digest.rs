//! Order-sensitive 64-bit digest of a pass's outcome.
//!
//! Every latency, counter and placement a pass produces is folded in
//! bit-exactly (floats by their bit pattern), so two passes share a
//! digest only if they produced the same outcome.

/// FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn u64s(&mut self, vs: impl IntoIterator<Item = u64>) {
        let mut n = 0u64;
        for v in vs {
            self.u64(v);
            n += 1;
        }
        // Length-terminate so adjacent sequences cannot alias.
        self.u64(n);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::Digest;

    #[test]
    fn order_and_length_matter() {
        let mut a = Digest::default();
        a.u64s([1, 2]);
        a.u64s([3]);
        let mut b = Digest::default();
        b.u64s([1]);
        b.u64s([2, 3]);
        let mut c = Digest::default();
        c.u64s([2, 1]);
        c.u64s([3]);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
    }
}
