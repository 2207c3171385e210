//! Seeded input generation: the benchmark's own RNG, Zipf node
//! popularity, and the serving request mix.
//!
//! Everything here is a pure function of the `--seed` argument, so the
//! same seed always produces the same store, the same popularity ranking
//! and the same request sequence on every client.

/// SplitMix64: tiny, fast, and independent of the library's RNGs, so a
/// change to the system under test cannot change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`), by widening multiply.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Zipf(`s`) popularity over `n` items: rank `r` (0-based) is drawn with
/// probability proportional to `1 / (r + 1)^s`, and ranks map to node ids
/// through a seeded permutation so hot nodes are spread over the store.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    node_of_rank: Vec<usize>,
}

impl Zipf {
    /// Popularity over nodes `0..n` with exponent `s`, ranked by `seed`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf over no items");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut node_of_rank: Vec<usize> = (0..n).collect();
        let mut rng = SplitMix64::new(seed, 0x21f);
        for i in (1..n).rev() {
            node_of_rank.swap(i, rng.below(i + 1));
        }
        Self { cdf, node_of_rank }
    }

    /// Draws one node.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.node_of_rank[rank]
    }

    /// The node at popularity rank `rank` (0 = hottest).
    #[cfg(test)]
    pub fn node_at_rank(&self, rank: usize) -> usize {
        self.node_of_rank[rank]
    }
}

/// Top-k size every serving request asks for.
pub const TOP_K: u32 = 10;

/// Recall target of the approximate requests.
pub const RECALL_TARGET: f64 = 0.95;

/// One wire request of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Approximate top-10 at recall [`RECALL_TARGET`] (70 % of the mix).
    Approx(usize),
    /// Exact top-10 (20 %).
    Exact(usize),
    /// Eq.-2 pair score (10 %).
    Score(usize, usize),
}

impl Request {
    /// Index of the request kind: 0 approximate, 1 exact, 2 score.
    pub fn kind(self) -> usize {
        match self {
            Request::Approx(_) => 0,
            Request::Exact(_) => 1,
            Request::Score(..) => 2,
        }
    }
}

/// Names of the request kinds, indexed by [`Request::kind`].
pub const KIND_NAMES: [&str; 3] = ["approx", "exact", "score"];

/// The endless request sequence of one client: kinds drawn 70/20/10,
/// query nodes from the shared Zipf popularity, the second node of a
/// score uniform over the store.
#[derive(Debug, Clone)]
pub struct RequestStream<'z> {
    zipf: &'z Zipf,
    rng: SplitMix64,
}

impl<'z> RequestStream<'z> {
    /// Client `client`'s stream for `seed`.
    pub fn new(zipf: &'z Zipf, seed: u64, client: u64) -> Self {
        Self {
            zipf,
            rng: SplitMix64::new(seed, 0xc11e_0000 + client),
        }
    }
}

impl Iterator for RequestStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let u = self.rng.next_f64();
        let node = self.zipf.sample(&mut self.rng);
        Some(if u < 0.7 {
            Request::Approx(node)
        } else if u < 0.9 {
            Request::Exact(node)
        } else {
            let other = self.rng.below(self.zipf.cdf.len());
            Request::Score(node, other)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_seeded_and_in_range() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(7, 1);
            (0..5).map(|_| g.next_u64()).collect()
        };
        let mut g = SplitMix64::new(7, 1);
        assert_eq!(a, (0..5).map(|_| g.next_u64()).collect::<Vec<_>>());
        let mut h = SplitMix64::new(7, 2);
        assert_ne!(a[0], h.next_u64());
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(g.below(13) < 13);
        }
    }

    #[test]
    fn zipf_is_identical_at_a_seed_and_skewed() {
        let a = Zipf::new(1000, 1.0, 5);
        let b = Zipf::new(1000, 1.0, 5);
        let c = Zipf::new(1000, 1.0, 6);
        assert_eq!(a.node_of_rank, b.node_of_rank);
        assert_ne!(a.node_of_rank, c.node_of_rank);
        // The ranking is a permutation of the nodes.
        let mut sorted = a.node_of_rank.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        // Rank 0 carries 1/H(1000) ~ 13.4 % of the draws.
        let mut rng = SplitMix64::new(1, 0);
        let hot = a.node_at_rank(0);
        let hits = (0..100_000).filter(|_| a.sample(&mut rng) == hot).count();
        assert!((12_500..14_300).contains(&hits), "{hits}");
    }

    #[test]
    fn request_mix_is_identical_at_a_seed() {
        let zipf = Zipf::new(5000, 1.0, 3);
        let a: Vec<Request> = RequestStream::new(&zipf, 3, 0).take(2000).collect();
        let b: Vec<Request> = RequestStream::new(&zipf, 3, 0).take(2000).collect();
        let other_client: Vec<Request> = RequestStream::new(&zipf, 3, 1).take(2000).collect();
        let other_seed: Vec<Request> = RequestStream::new(&zipf, 4, 0).take(2000).collect();
        assert_eq!(a, b);
        assert_ne!(a, other_client);
        assert_ne!(a, other_seed);
    }

    #[test]
    fn request_mix_is_seventy_twenty_ten() {
        let zipf = Zipf::new(5000, 1.0, 3);
        let mut counts = [0usize; 3];
        for r in RequestStream::new(&zipf, 11, 0).take(100_000) {
            counts[r.kind()] += 1;
            if let Request::Score(u, v) = r {
                assert!(u < 5000 && v < 5000);
            }
        }
        assert!((69_000..71_000).contains(&counts[0]), "{counts:?}");
        assert!((19_200..20_800).contains(&counts[1]), "{counts:?}");
        assert!((9_400..10_600).contains(&counts[2]), "{counts:?}");
    }
}
