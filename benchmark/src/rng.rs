//! The benchmark's own randomness: splitmix64, so op streams depend on
//! `--seed` and on nothing else (not on the repo's vendored `rand` stub,
//! which a later PR may replace).

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, full
/// period, passes BigCrush.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for the
    /// ranges used here (`n` < 2²⁴).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Sampler over `0..n` with probability ∝ `1 / (rank + 1)^skew`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, skew: f64) -> Self {
        assert!(n > 0, "Zipf over an empty set");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(skew);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let roll = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= roll)
            .min(self.cumulative.len() - 1)
    }
}

/// FNV-1a over bytes: the op-stream fingerprint printed by every run.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(64, 0.8);
        let mut r = SplitMix64::new(7);
        let mut hits = [0u32; 64];
        for _ in 0..20_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > hits[63] * 5);
        assert!(hits.iter().all(|&h| h > 0));
    }

    #[test]
    fn fnv_reference_vector() {
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
    }
}
