//! Zipf-distributed key generator (rank `k` drawn with weight `1 / k^theta`).

use mtc_util::rng::Rng;

/// Draws ids in `1..=n`. Ranks are mapped to ids through a fixed affine
/// permutation, so the hot keys are scattered over the key space and differ
/// from seed to seed instead of always being ids 1, 2, 3.
pub struct Zipf {
    /// `cdf[k-1]` = probability that the rank is at most `k`.
    cdf: Vec<f64>,
    stride: u64,
    offset: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Zipf {
    /// `n` keys, exponent `theta`; `offset` (any value) picks the permutation.
    pub fn new(n: usize, theta: f64, offset: u64) -> Zipf {
        assert!(n > 0, "Zipf over an empty key space");
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for k in 1..=n {
            sum += 1.0 / (k as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        // A multiplier coprime to n makes rank -> id a bijection.
        let n64 = n as u64;
        let mut stride = (7919 % n64).max(1);
        while gcd(stride, n64) != 1 {
            stride += 1;
        }
        Zipf {
            cdf,
            stride,
            offset: offset % n64,
        }
    }

    /// The id of rank `rank` (1 = hottest).
    pub fn id_of_rank(&self, rank: usize) -> i64 {
        let n = self.cdf.len() as u64;
        (((rank as u64 - 1) * self.stride + self.offset) % n) as i64 + 1
    }

    pub fn sample(&self, rng: &mut impl Rng) -> i64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let rank = self.cdf.partition_point(|&c| c <= u) + 1;
        self.id_of_rank(rank.min(self.cdf.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_util::rng::{SeedableRng, StdRng};

    #[test]
    fn same_seed_same_keys_and_other_seed_differs() {
        let z = Zipf::new(1000, 1.0, 17);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert!(draw(42).iter().all(|&k| (1..=1000).contains(&k)));
    }

    #[test]
    fn rank_to_id_is_a_bijection_and_rank_one_is_hottest() {
        for n in [1usize, 2, 100, 1000, 5760] {
            let z = Zipf::new(n, 1.0, 12345);
            let mut ids: Vec<i64> = (1..=n).map(|r| z.id_of_rank(r)).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "n = {n}");
        }
        let z = Zipf::new(1000, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let hot = z.id_of_rank(1);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == hot).count();
        // H(1000) ~ 7.49, so rank 1 carries ~13 % of the draws.
        assert!((1000..1700).contains(&hits), "{hits}");
    }
}
