//! Negative sampling (Algorithm 2, lines 2–8).
//!
//! For each positive edge `(v_i, v_j)` in the batch, the paper pairs the
//! *starting node* `v_i` with `k` nodes sampled from the node set (Remark 1:
//! negative pairs may or may not be actual edges — no rejection against `E`).
//! The sampled node count `B*k` drives the second amplification rate
//! `gamma = Bk/|V|` in Theorem 7.
//!
//! The paper's Algorithm 2 samples nodes **uniformly**; classical skip-gram
//! (word2vec/LINE) uses the unigram distribution raised to 3/4. Both are
//! provided; AdvSGM defaults to the paper's uniform choice.
//!
//! The sampler is immutable after construction (`&self` sampling with a
//! caller-supplied RNG), so one instance can be shared by reference across
//! threads; the `Send + Sync` guarantee is pinned by a compile-time
//! assertion.

use rand::Rng;

use crate::edge::Edge;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::sampling::alias::AliasTable;

/// The distribution negatives are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NegativeDistribution {
    /// Uniform over `V` — the paper's Algorithm 2.
    #[default]
    Uniform,
    /// `P_n(v) proportional to deg(v)^{3/4}` — the word2vec/LINE convention.
    Unigram34,
}

/// A negative pair `(source, negative)` produced for the skip-gram loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NegativePair {
    /// The positive pair's starting node `v_i`.
    pub source: NodeId,
    /// The sampled negative node `v_n`.
    pub negative: NodeId,
}

/// Samples negative pairs for batches of positive edges.
#[derive(Debug, Clone)]
pub struct NegativeSampler {
    num_nodes: usize,
    distribution: NegativeDistribution,
    unigram: Option<AliasTable>,
}

impl NegativeSampler {
    /// Creates a sampler for `graph` under the given distribution.
    ///
    /// # Errors
    /// Returns [`GraphError::EmptyGraph`] for a graph with no nodes, or an
    /// alias-construction error if all degrees are zero under
    /// [`NegativeDistribution::Unigram34`].
    pub fn new(graph: &Graph, distribution: NegativeDistribution) -> Result<Self, GraphError> {
        if graph.num_nodes() == 0 {
            return Err(GraphError::EmptyGraph {
                op: "negative sampling",
            });
        }
        let unigram = match distribution {
            NegativeDistribution::Uniform => None,
            NegativeDistribution::Unigram34 => {
                let w: Vec<f64> = (0..graph.num_nodes())
                    .map(|i| (graph.degree(NodeId::from_index(i)) as f64).powf(0.75))
                    .collect();
                Some(AliasTable::new(&w)?)
            }
        };
        Ok(Self {
            num_nodes: graph.num_nodes(),
            distribution,
            unigram,
        })
    }

    /// The configured distribution.
    pub fn distribution(&self) -> NegativeDistribution {
        self.distribution
    }

    /// Draws one negative node.
    #[inline]
    pub fn sample_node(&self, rng: &mut impl Rng) -> NodeId {
        match &self.unigram {
            None => NodeId::from_index(rng.gen_range(0..self.num_nodes)),
            Some(t) => NodeId::from_index(t.sample(rng)),
        }
    }

    /// Algorithm 2, lines 2–8: for each positive edge, pairs its starting
    /// node with `k` sampled nodes, yielding `B*k` negative pairs.
    pub fn sample_for_batch(
        &self,
        positives: &[Edge],
        k: usize,
        rng: &mut impl Rng,
    ) -> Vec<NegativePair> {
        // "the starting node of a positive sample" — the canonical edge
        // stores endpoints sorted, u is the start.
        let sources: Vec<NodeId> = positives.iter().map(|e| e.u()).collect();
        self.sample_for_sources(&sources, k, rng)
    }

    /// Negative sampling for explicit source nodes — the trainer uses this
    /// with *randomly oriented* positive pairs so that every node trains
    /// both its input and output vector (an undirected edge contributes in
    /// both directions, as in LINE/word2vec).
    pub fn sample_for_sources(
        &self,
        sources: &[NodeId],
        k: usize,
        rng: &mut impl Rng,
    ) -> Vec<NegativePair> {
        let mut out = Vec::with_capacity(sources.len() * k);
        for &source in sources {
            for _ in 0..k {
                out.push(NegativePair {
                    source,
                    negative: self.sample_node(rng),
                });
            }
        }
        out
    }

    /// The amplification rate `gamma = B*k/|V|` for the accountant
    /// (Theorem 7). Values above 1 are clamped by the caller's accountant.
    pub fn sampling_probability(&self, batch: usize, k: usize) -> f64 {
        (batch * k) as f64 / self.num_nodes as f64
    }
}

/// Compile-time proof the sampler can be shared across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NegativeSampler>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::{karate_club, star_graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn batch_size_is_bk() {
        let g = karate_club();
        let s = NegativeSampler::new(&g, NegativeDistribution::Uniform).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let pos = &g.edges()[..8];
        let negs = s.sample_for_batch(pos, 5, &mut rng);
        assert_eq!(negs.len(), 40);
        for (b, chunk) in negs.chunks(5).enumerate() {
            for n in chunk {
                assert_eq!(n.source, pos[b].u(), "source must be the start node");
            }
        }
    }

    #[test]
    fn uniform_covers_all_nodes() {
        let g = karate_club();
        let s = NegativeSampler::new(&g, NegativeDistribution::Uniform).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = vec![false; g.num_nodes()];
        for _ in 0..5_000 {
            seen[s.sample_node(&mut rng).index()] = true;
        }
        assert!(seen.iter().all(|&b| b), "some node never sampled");
    }

    #[test]
    fn unigram_prefers_hubs() {
        // Star graph: hub 0 has degree n-1, leaves degree 1.
        let g = star_graph(50);
        let s = NegativeSampler::new(&g, NegativeDistribution::Unigram34).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut hub = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if s.sample_node(&mut rng) == NodeId(0) {
                hub += 1;
            }
        }
        // Hub weight 49^0.75 ~ 18.6 vs 49 leaves at 1.0 -> expected ~0.275.
        let f = hub as f64 / n as f64;
        assert!((f - 0.275).abs() < 0.03, "hub fraction {f}");
    }

    #[test]
    fn negatives_may_include_real_edges() {
        // Remark 1: negatives are NOT rejected against E. On a complete-ish
        // graph most sampled pairs are real edges; just assert no panic and
        // that sources come from the batch.
        let g = karate_club();
        let s = NegativeSampler::new(&g, NegativeDistribution::Uniform).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let negs = s.sample_for_batch(&g.edges()[..3], 10, &mut rng);
        assert_eq!(negs.len(), 30);
    }

    #[test]
    fn shared_sampler_draws_match_sequential_across_threads() {
        // One sampler, four threads, per-thread seeded RNGs: concurrent
        // draws must be exactly the draws each RNG would produce alone.
        let g = karate_club();
        let s = NegativeSampler::new(&g, NegativeDistribution::Unigram34).unwrap();
        let sources: Vec<NodeId> = (0..8).map(NodeId::from_index).collect();
        let draws_with = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            s.sample_for_sources(&sources, 5, &mut rng)
        };
        let sequential: Vec<_> = (10..14).map(draws_with).collect();
        let concurrent: Vec<_> = std::thread::scope(|sc| {
            let handles: Vec<_> = (10..14u64)
                .map(|seed| {
                    let s = &s;
                    let sources = &sources;
                    sc.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed);
                        s.sample_for_sources(sources, 5, &mut rng)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, concurrent);
    }

    #[test]
    fn sampling_probability_formula() {
        let g = karate_club();
        let s = NegativeSampler::new(&g, NegativeDistribution::Uniform).unwrap();
        let p = s.sampling_probability(17, 2);
        assert!((p - 1.0).abs() < 1e-12); // 34 samples over 34 nodes
    }

    #[test]
    fn empty_graph_rejected() {
        let g = Graph::from_parts(0, vec![], None);
        assert!(NegativeSampler::new(&g, NegativeDistribution::Uniform).is_err());
    }
}
