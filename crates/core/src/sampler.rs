//! Batch provisioning (Algorithm 2 glue).
//!
//! Bundles the graph substrate's edge and negative samplers and exposes the
//! two subsampling probabilities Theorem 7 needs: `gamma_pos = B/|E|` and
//! `gamma_neg = B k/|V|`.
//!
//! Besides the sequential engine's pull-style methods, the provider can
//! *produce* whole discriminator iterations up front
//! ([`BatchProvider::sample_disc_iteration`]). The sharded engine runs
//! this production on a dedicated thread feeding a bounded queue, so
//! Algorithm 2 sampling for iteration `t + 1` overlaps the gradient work
//! of iteration `t` (DESIGN.md §7). Batch *composition* is independent of
//! thread count: it depends only on the producer's RNG stream, which is
//! derived from the seed alone.

use advsgm_graph::sampling::edge_sampler::EdgeBatchSampler;
use advsgm_graph::sampling::negative::{NegativeDistribution, NegativePair, NegativeSampler};
use advsgm_graph::{Edge, Graph, GraphError};
use rand::Rng;

use crate::variants::ModelVariant;
use crate::weighting::{precompute_edge_weights, PairWeighting};

/// One discriminator update's worth of pairs in the trainer's normalised
/// `(input row, output row)` form.
///
/// Positive batches carry randomly oriented edges (so every node trains
/// both vector roles); negative batches carry `(source, sampled negative)`
/// pairs. The flag tells the gradient kernel which loss term applies —
/// the two batch kinds are *separate* mechanism invocations so their
/// amplification rates compose cleanly (Theorem 7).
#[derive(Debug, Clone)]
pub struct DiscBatch {
    /// `(input row, output row)` index pairs.
    pub pairs: Vec<(usize, usize)>,
    /// `true` for a positive (edge) batch, `false` for a negative batch.
    pub positive: bool,
    /// Per-pair foe flags, aligned with `pairs`. Empty means "all friend"
    /// — the legacy transport for sign-blind variants and negative
    /// batches, so sign-blind training builds byte-identical batches.
    pub signs: Vec<bool>,
    /// Per-pair gradient weights in `(0, 1]`, aligned with `pairs`. Empty
    /// means "all 1" (uniform weighting — no scaling is ever applied).
    pub weights: Vec<f64>,
}

impl DiscBatch {
    /// Whether pair `idx` is a foe (antagonistic) pair; `false` for
    /// sign-blind batches and sampled negatives.
    #[inline]
    pub fn foe(&self, idx: usize) -> bool {
        self.signs.get(idx).copied().unwrap_or(false)
    }

    /// The gradient weight of pair `idx`; `1.0` under uniform weighting.
    #[inline]
    pub fn weight(&self, idx: usize) -> f64 {
        self.weights.get(idx).copied().unwrap_or(1.0)
    }
}

/// Produces the paper's positive and negative batches.
#[derive(Debug, Clone)]
pub struct BatchProvider {
    edges: EdgeBatchSampler,
    negatives: NegativeSampler,
    batch: usize,
    k: usize,
    /// Per-edge foe flags, attached only for sign-aware variants on a
    /// signed graph (indexable by the sampler's edge indices).
    signs: Option<Vec<bool>>,
    /// Precomputed per-edge pair weights, attached only under
    /// [`PairWeighting::StructurePreference`].
    edge_weights: Option<Vec<f64>>,
}

impl BatchProvider {
    /// Creates a provider for `graph`, clamping the batch size to `|E|`.
    /// Batches carry no sign or weight channels (the legacy, sign-blind
    /// transport); use [`BatchProvider::new_for_variant`] to attach them.
    ///
    /// # Errors
    /// Propagates sampler construction failures (empty graph).
    pub fn new(
        graph: &Graph,
        batch: usize,
        k: usize,
        dist: NegativeDistribution,
    ) -> Result<Self, GraphError> {
        let edges = EdgeBatchSampler::new(graph.num_edges())?;
        let negatives = NegativeSampler::new(graph, dist)?;
        Ok(Self {
            edges,
            negatives,
            batch: batch.min(graph.num_edges()),
            k,
            signs: None,
            edge_weights: None,
        })
    }

    /// Creates a provider whose batches carry exactly the side channels
    /// `variant` consumes: foe flags for sign-aware variants on a signed
    /// graph (an unsigned graph degrades gracefully to all-friend), and
    /// structure-preference weights under
    /// [`PairWeighting::StructurePreference`]. Every channel lookup is by
    /// sampled edge index and draws no randomness, so batch *composition*
    /// is identical to [`BatchProvider::new`] at the same seed.
    ///
    /// # Errors
    /// Propagates sampler construction failures (empty graph).
    pub fn new_for_variant(
        graph: &Graph,
        batch: usize,
        k: usize,
        dist: NegativeDistribution,
        variant: ModelVariant,
    ) -> Result<Self, GraphError> {
        let mut p = Self::new(graph, batch, k, dist)?;
        if variant.is_sign_aware() {
            p.signs = graph.signs().map(<[bool]>::to_vec);
        }
        if variant.pair_weighting() == PairWeighting::StructurePreference {
            p.edge_weights = Some(precompute_edge_weights(graph));
        }
        Ok(p)
    }

    /// Effective batch size `B` (after clamping).
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Negative sampling number `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Algorithm 2 line 1: `B` edges uniformly without replacement.
    ///
    /// # Errors
    /// Propagates sampling failures.
    pub fn positives(
        &mut self,
        graph: &Graph,
        rng: &mut impl Rng,
    ) -> Result<Vec<Edge>, GraphError> {
        self.edges.sample_edges(graph, self.batch, rng)
    }

    /// Algorithm 2 lines 2–8: `B k` negative pairs for the given positives.
    pub fn negatives(&self, positives: &[Edge], rng: &mut impl Rng) -> Vec<NegativePair> {
        self.negatives.sample_for_batch(positives, self.k, rng)
    }

    /// [`BatchProvider::positives`] plus the batch's foe flags (empty when
    /// the provider carries no sign channel). Identical RNG draws: the
    /// sign lookup is by sampled edge index and consumes no randomness.
    ///
    /// # Errors
    /// Propagates sampling failures.
    pub fn positives_with_signs(
        &mut self,
        graph: &Graph,
        rng: &mut impl Rng,
    ) -> Result<(Vec<Edge>, Vec<bool>), GraphError> {
        let idx = self.edges.sample_indices_for(graph, self.batch, rng)?;
        let pos = idx.iter().map(|&i| graph.edges()[i as usize]).collect();
        let signs = match &self.signs {
            Some(s) => idx.iter().map(|&i| s[i as usize]).collect(),
            None => Vec::new(),
        };
        Ok((pos, signs))
    }

    /// Samples one full discriminator iteration: a randomly oriented
    /// positive batch plus the matching negative batch, in the exact
    /// Algorithm 2/3 order (positives, per-edge orientation coin flips,
    /// then negatives for the oriented sources).
    ///
    /// # Errors
    /// Propagates edge-sampling failures.
    pub fn sample_disc_iteration(
        &mut self,
        graph: &Graph,
        rng: &mut impl Rng,
    ) -> Result<(DiscBatch, DiscBatch), GraphError> {
        // Edge *indices* first (the exact draws of `positives`), so the
        // sign/weight channels can be looked up RNG-free per index.
        let idx: Vec<u32> = self
            .edges
            .sample_indices_for(graph, self.batch, rng)?
            .to_vec();
        let oriented: Vec<(usize, usize)> = idx
            .iter()
            .map(|&i| {
                let e = graph.edges()[i as usize];
                if rng.gen::<bool>() {
                    (e.u().index(), e.v().index())
                } else {
                    (e.v().index(), e.u().index())
                }
            })
            .collect();
        let signs = match &self.signs {
            Some(s) => idx.iter().map(|&i| s[i as usize]).collect(),
            None => Vec::new(),
        };
        let weights = match &self.edge_weights {
            Some(w) => idx.iter().map(|&i| w[i as usize]).collect(),
            None => Vec::new(),
        };
        let sources: Vec<advsgm_graph::NodeId> = oriented
            .iter()
            .map(|&(i, _)| advsgm_graph::NodeId::from_index(i))
            .collect();
        let negs = self.negatives.sample_for_sources(&sources, self.k, rng);
        let neg_pairs: Vec<(usize, usize)> = negs
            .iter()
            .map(|p| (p.source.index(), p.negative.index()))
            .collect();
        Ok((
            DiscBatch {
                pairs: oriented,
                positive: true,
                signs,
                weights,
            },
            // Sampled negatives are always friend-polarity, unit-weight
            // repel terms, whatever the variant.
            DiscBatch {
                pairs: neg_pairs,
                positive: false,
                signs: Vec::new(),
                weights: Vec::new(),
            },
        ))
    }

    /// The edge sampler's internal index permutation — mutable sampling
    /// state that a bitwise-exact checkpoint must capture (the negative
    /// sampler is stateless, so this is the provider's *only* hidden
    /// state; see `session::CheckpointState`).
    pub fn edge_permutation(&self) -> &[u32] {
        self.edges.permutation()
    }

    /// Restores the edge sampler's permutation from a checkpoint.
    ///
    /// # Errors
    /// Propagates the sampler's validation (must be a permutation of
    /// `0..|E|`).
    pub fn restore_edge_permutation(&mut self, perm: Vec<u32>) -> Result<(), GraphError> {
        self.edges.restore_permutation(perm)
    }

    /// `gamma_pos = B / |E|`.
    pub fn gamma_pos(&self) -> f64 {
        self.edges.sampling_probability(self.batch)
    }

    /// `gamma_neg = B k / |V|` (the accountant clamps values above 1).
    pub fn gamma_neg(&self) -> f64 {
        self.negatives.sampling_probability(self.batch, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advsgm_graph::generators::classic::karate_club;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn batch_clamped_to_edge_count() {
        let g = karate_club(); // 78 edges
        let p = BatchProvider::new(&g, 1000, 5, NegativeDistribution::Uniform).unwrap();
        assert_eq!(p.batch_size(), 78);
    }

    #[test]
    fn gammas_match_theorem7() {
        let g = karate_club();
        let p = BatchProvider::new(&g, 10, 5, NegativeDistribution::Uniform).unwrap();
        assert!((p.gamma_pos() - 10.0 / 78.0).abs() < 1e-12);
        assert!((p.gamma_neg() - 50.0 / 34.0).abs() < 1e-12);
    }

    #[test]
    fn disc_iteration_shapes_and_orientation() {
        let g = karate_club();
        let mut p = BatchProvider::new(&g, 12, 4, NegativeDistribution::Uniform).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let (pos, neg) = p.sample_disc_iteration(&g, &mut rng).unwrap();
        assert!(pos.positive);
        assert!(!neg.positive);
        assert_eq!(pos.pairs.len(), 12);
        assert_eq!(neg.pairs.len(), 48);
        // Every positive pair is a real edge (in one of the two roles).
        for &(i, j) in &pos.pairs {
            assert!(g.has_edge(
                advsgm_graph::NodeId::from_index(i),
                advsgm_graph::NodeId::from_index(j)
            ));
        }
        // Negative sources are exactly the oriented positive starts, k each.
        for (b, chunk) in neg.pairs.chunks(4).enumerate() {
            for &(src, _) in chunk {
                assert_eq!(src, pos.pairs[b].0);
            }
        }
    }

    #[test]
    fn batches_have_prescribed_sizes() {
        let g = karate_club();
        let mut p = BatchProvider::new(&g, 10, 3, NegativeDistribution::Uniform).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let pos = p.positives(&g, &mut rng).unwrap();
        assert_eq!(pos.len(), 10);
        let negs = p.negatives(&pos, &mut rng);
        assert_eq!(negs.len(), 30);
    }

    /// Karate club with a deterministic polarity stamp (every third edge
    /// a foe), for exercising the sign channel.
    fn signed_karate() -> Graph {
        let g = karate_club();
        let signs: Vec<bool> = (0..g.num_edges()).map(|i| i % 3 == 0).collect();
        Graph::from_parts_signed(g.num_nodes(), g.edges().to_vec(), Some(signs), None)
    }

    #[test]
    fn sign_channel_attaches_only_for_sign_aware_variants() {
        let g = signed_karate();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut aware = BatchProvider::new_for_variant(
            &g,
            12,
            3,
            NegativeDistribution::Uniform,
            ModelVariant::SignedAdvSgm,
        )
        .unwrap();
        let (pos, _) = aware.sample_disc_iteration(&g, &mut rng).unwrap();
        assert_eq!(pos.signs.len(), pos.pairs.len(), "signs aligned");
        assert!(pos.signs.iter().any(|&s| s), "foe flags actually surface");
        assert!(pos.signs.iter().any(|&s| !s), "friend flags too");

        // Sign-blind variants on the same signed graph: legacy transport.
        for v in [
            ModelVariant::AdvSgm,
            ModelVariant::Sgm,
            ModelVariant::SpAdvSgm,
        ] {
            let mut blind =
                BatchProvider::new_for_variant(&g, 12, 3, NegativeDistribution::Uniform, v)
                    .unwrap();
            let mut rng = SmallRng::seed_from_u64(4);
            let (pos, neg) = blind.sample_disc_iteration(&g, &mut rng).unwrap();
            assert!(pos.signs.is_empty(), "{v}: no sign channel");
            assert!(neg.signs.is_empty());
            assert!(!pos.foe(0), "empty channel reads as all-friend");
        }
    }

    #[test]
    fn side_channels_never_perturb_the_draw_sequence() {
        // The seam's bitwise contract: attaching signs and/or weights
        // consumes no randomness, so batch composition is identical to the
        // legacy provider at the same seed — across a whole epoch plan.
        let g = signed_karate();
        // Four iterations then the epoch-loss batch, in consumption order.
        let epoch = |mut p: BatchProvider| {
            let mut rng = SmallRng::seed_from_u64(55);
            let updates: Vec<_> = (0..4)
                .map(|_| p.sample_disc_iteration(&g, &mut rng).unwrap())
                .flat_map(|(pos, neg)| [(pos.pairs, pos.positive), (neg.pairs, neg.positive)])
                .collect();
            let (loss_pos, _) = p.positives_with_signs(&g, &mut rng).unwrap();
            let loss_neg = p.negatives(&loss_pos, &mut rng);
            (updates, loss_pos, loss_neg)
        };
        let legacy = epoch(BatchProvider::new(&g, 8, 3, NegativeDistribution::Uniform).unwrap());
        for v in [ModelVariant::SignedAdvSgm, ModelVariant::SpAdvSgm] {
            let p =
                BatchProvider::new_for_variant(&g, 8, 3, NegativeDistribution::Uniform, v).unwrap();
            assert_eq!(epoch(p), legacy, "{v}: identical batch composition");
        }
    }

    #[test]
    fn weights_attach_only_under_structure_preference() {
        let g = signed_karate();
        let mut sp = BatchProvider::new_for_variant(
            &g,
            10,
            2,
            NegativeDistribution::Uniform,
            ModelVariant::SpAdvSgm,
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        let (pos, neg) = sp.sample_disc_iteration(&g, &mut rng).unwrap();
        assert_eq!(pos.weights.len(), pos.pairs.len());
        assert!(
            pos.weights.iter().all(|&w| w > 0.0 && w <= 1.0),
            "weights stay in (0, 1] so clipped sensitivity holds"
        );
        assert!(neg.weights.is_empty(), "negative batches stay uniform");
        assert_eq!(neg.weight(0), 1.0);

        let mut uni = BatchProvider::new_for_variant(
            &g,
            10,
            2,
            NegativeDistribution::Uniform,
            ModelVariant::AdvSgm,
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        let (pos, _) = uni.sample_disc_iteration(&g, &mut rng).unwrap();
        assert!(pos.weights.is_empty(), "uniform weighting sends no channel");
        assert_eq!(pos.weight(0), 1.0);
    }

    #[test]
    fn unsigned_graph_degrades_to_all_friend() {
        let g = karate_club();
        let mut p = BatchProvider::new_for_variant(
            &g,
            8,
            2,
            NegativeDistribution::Uniform,
            ModelVariant::SignedAdvSgm,
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let (pos, _) = p.sample_disc_iteration(&g, &mut rng).unwrap();
        assert!(pos.signs.is_empty());
        assert!((0..pos.pairs.len()).all(|i| !pos.foe(i)));
    }

    #[test]
    fn positives_with_signs_reports_the_graph_polarity() {
        let g = signed_karate();
        let mut p = BatchProvider::new_for_variant(
            &g,
            14,
            2,
            NegativeDistribution::Uniform,
            ModelVariant::SignedAdvSgm,
        )
        .unwrap();
        // Same draws as the plain `positives` path...
        let pos_plain = p
            .clone()
            .positives(&g, &mut SmallRng::seed_from_u64(31))
            .unwrap();
        let (pos, signs) = p
            .positives_with_signs(&g, &mut SmallRng::seed_from_u64(31))
            .unwrap();
        assert_eq!(pos, pos_plain);
        // ...and every flag agrees with the graph's own polarity.
        for (e, &foe) in pos.iter().zip(&signs) {
            let idx = g.edges().iter().position(|x| x == e).unwrap();
            assert_eq!(g.edge_is_foe(idx), foe);
        }
    }
}
