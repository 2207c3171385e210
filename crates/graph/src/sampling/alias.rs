//! Vose's alias method for O(1) categorical sampling.
//!
//! Negative sampling and the degree-corrected SBM both need millions of
//! draws from fixed categorical distributions; the alias method pays O(n)
//! setup for O(1) draws.
//!
//! The table is immutable after construction and [`AliasTable::sample`]
//! takes `&self` with a caller-supplied RNG, so one table can be shared by
//! reference across threads (each brings its own RNG); a compile-time
//! assertion below pins the `Send + Sync` guarantee.

use rand::Rng;

use crate::error::GraphError;

/// An alias table over `0..n` built from non-negative weights.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from `weights` (need not be normalised).
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidParameter`] if `weights` is empty, has a
    /// negative/non-finite entry, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, GraphError> {
        if weights.is_empty() {
            return Err(GraphError::InvalidParameter {
                name: "weights",
                reason: "alias table requires at least one weight".into(),
            });
        }
        let mut total = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidParameter {
                    name: "weights",
                    reason: format!("weight {w} at index {i} is negative or non-finite"),
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(GraphError::InvalidParameter {
                name: "weights",
                reason: "weights sum to zero".into(),
            });
        }
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are 1.0 up to rounding.
        for i in large.into_iter().chain(small) {
            prob[i] = 1.0;
        }
        Ok(AliasTable { prob, alias })
    }

    /// Number of categories.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one category index.
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Compile-time proof that a built table can be shared across the training
/// pool's worker threads by reference.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AliasTable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_inputs() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[1.0, -0.5]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0; 4]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        let n = 40_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 0.25).abs() < 0.02, "count fraction {f}");
        }
    }

    #[test]
    fn skewed_weights_respected() {
        let t = AliasTable::new(&[8.0, 1.0, 1.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0usize; 3];
        let n = 50_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.8).abs() < 0.02, "f0={f0}");
    }

    #[test]
    fn zero_weight_category_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn concurrent_draws_with_per_thread_rngs_match_sequential() {
        // Shared-by-reference sampling: each thread draws with its own
        // seeded RNG; the result must equal the same draws made
        // sequentially, proving &self sampling has no hidden state.
        let t = AliasTable::new(&[5.0, 1.0, 2.0, 0.5]).unwrap();
        let draws_with = |seed: u64| -> Vec<usize> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..500).map(|_| t.sample(&mut rng)).collect()
        };
        let sequential: Vec<Vec<usize>> = (0..4).map(draws_with).collect();
        let concurrent: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|seed| {
                    let t = &t;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed);
                        (0..500).map(|_| t.sample(&mut rng)).collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, concurrent);
    }

    #[test]
    fn single_category() {
        let t = AliasTable::new(&[3.7]).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
