//! The benchmark's own seeded generator and input digest.
//!
//! The engine never sees the seed: it receives only the rows generated
//! here. The digest is printed with every result so two runs can be shown
//! to have measured the same inputs.

/// SplitMix64: small, fast, and every seed (including 0) gives a
/// full-period stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// An independent stream for one named part of a workload, so adding a
    /// table does not shift the values of the others.
    pub fn fork(seed: u64, tag: &str) -> Self {
        let mut d = Digest::new();
        d.bytes(tag.as_bytes());
        Rng::new(seed ^ d.value().rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias is below 2^-32 for every n used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        self.unit() * 2.0 - 1.0
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// FNV-1a over the generated values, as the input digest.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_hold() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
            let s = r.symmetric();
            assert!((-1.0..1.0).contains(&s));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut xs);
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn digest_depends_on_every_value_and_on_order() {
        let mut a = Digest::new();
        a.f64s(&[1.0, 2.0]);
        let mut b = Digest::new();
        b.f64s(&[2.0, 1.0]);
        let mut c = Digest::new();
        c.f64s(&[1.0, 2.0]);
        assert_ne!(a.value(), b.value());
        assert_eq!(a.hex(), c.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
