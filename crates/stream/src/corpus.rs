//! Synthetic document generators.
//!
//! Substitute for the paper's 7M-page Wikipedia stream. The
//! algorithms are sensitive to three corpus properties, all controlled here:
//!
//! 1. **term-frequency skew** — tokens are drawn from a Zipf distribution;
//! 2. **document sparsity** — token counts per document are sampled around a
//!    configurable mean;
//! 3. **term co-occurrence** — the [`CorpusModel::TopicMixture`] model draws
//!    most of a document's tokens from one of `num_topics` topical
//!    sub-vocabularies, so words cluster the way they do in real text (this
//!    is what makes the *Connected* query workload meaningfully different
//!    from *Uniform*).
//!
//! Term weights use log-scaled term frequency (`1 + ln(tf)`), L2-normalized
//! by [`ctk_common::Document::new`], i.e. standard cosine retrieval weights.

use crate::zipf::ZipfSampler;
use ctk_common::{DocId, Document, FxHashMap, TermId, Timestamp};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Which generative model produces documents.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusModel {
    /// Every token i.i.d. Zipf over the whole vocabulary.
    FlatZipf,
    /// Wikipedia-like: each document mixes one topic's sub-vocabulary with
    /// global background terms.
    TopicMixture {
        /// Number of topics.
        num_topics: usize,
        /// Distinct terms per topic.
        terms_per_topic: usize,
        /// Fraction of tokens drawn from the topic (rest are background).
        in_topic_fraction: f64,
    },
}

/// Full corpus configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Dictionary size.
    pub vocab_size: usize,
    /// Mean number of tokens per document.
    pub avg_tokens: usize,
    /// Token counts are uniform in `[avg*(1-jitter), avg*(1+jitter)]`.
    pub length_jitter: f64,
    /// Zipf exponent of the term distribution (≈1 for natural language).
    pub zipf_exponent: f64,
    pub model: CorpusModel,
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            // Wikipedia-like dictionary: the paper's 7M-page corpus has
            // over a million distinct terms; sparse lists are what make
            // identifier-ordered skipping effective.
            vocab_size: 400_000,
            avg_tokens: 300,
            length_jitter: 0.5,
            zipf_exponent: 1.0,
            model: CorpusModel::TopicMixture {
                num_topics: 500,
                terms_per_topic: 600,
                in_topic_fraction: 0.7,
            },
            seed: 0xC0FFEE,
        }
    }
}

impl CorpusConfig {
    /// A small flat-Zipf corpus, handy in unit tests.
    pub fn small_flat(vocab_size: usize, avg_tokens: usize, seed: u64) -> Self {
        CorpusConfig {
            vocab_size,
            avg_tokens,
            length_jitter: 0.3,
            zipf_exponent: 1.0,
            model: CorpusModel::FlatZipf,
            seed,
        }
    }
}

struct Topic {
    terms: Vec<u32>,
    sampler: ZipfSampler,
}

/// Deterministic generator of stream documents.
pub struct DocumentGenerator {
    cfg: CorpusConfig,
    global: ZipfSampler,
    topics: Vec<Topic>,
    topic_pick: Option<ZipfSampler>,
    rng: StdRng,
    // Reused token-count buffer.
    counts: FxHashMap<u32, u32>,
}

impl DocumentGenerator {
    pub fn new(cfg: CorpusConfig) -> Self {
        assert!(cfg.vocab_size >= 2);
        assert!(cfg.avg_tokens >= 1);
        assert!((0.0..1.0).contains(&cfg.length_jitter));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let global = ZipfSampler::new(cfg.vocab_size, cfg.zipf_exponent);

        let (topics, topic_pick) = match cfg.model {
            CorpusModel::FlatZipf => (Vec::new(), None),
            CorpusModel::TopicMixture { num_topics, terms_per_topic, in_topic_fraction } => {
                assert!(num_topics >= 1);
                assert!((0.0..=1.0).contains(&in_topic_fraction));
                let mut topics = Vec::with_capacity(num_topics);
                for _ in 0..num_topics {
                    // A topic's vocabulary: distinct terms drawn from the
                    // global Zipf, so topics share hot words but own their
                    // tails — which is where co-occurrence comes from.
                    let mut seen = FxHashMap::default();
                    let mut terms = Vec::with_capacity(terms_per_topic);
                    while terms.len() < terms_per_topic.min(cfg.vocab_size) {
                        let t = global.sample(&mut rng) as u32;
                        if seen.insert(t, ()).is_none() {
                            terms.push(t);
                        }
                    }
                    // Within a topic, earlier-drawn (globally hotter) terms
                    // stay hotter.
                    let sampler = ZipfSampler::new(terms.len(), 0.8);
                    topics.push(Topic { terms, sampler });
                }
                // Topic popularity is itself skewed.
                (topics, Some(ZipfSampler::new(num_topics, 0.7)))
            }
        };

        DocumentGenerator { cfg, global, topics, topic_pick, rng, counts: FxHashMap::default() }
    }

    pub fn config(&self) -> &CorpusConfig {
        &self.cfg
    }

    /// Sample the raw `(term, log-tf weight)` pairs of one document.
    /// Exposed so the *Connected* query workload can co-sample terms.
    pub fn sample_term_pairs(&mut self) -> Vec<(TermId, f32)> {
        let avg = self.cfg.avg_tokens as f64;
        let j = self.cfg.length_jitter;
        let lo = ((avg * (1.0 - j)) as usize).max(1);
        let hi = ((avg * (1.0 + j)) as usize).max(lo + 1);
        let tokens = self.rng.gen_range(lo..hi);

        self.counts.clear();
        match (&self.topic_pick, self.topics.is_empty()) {
            (Some(pick), false) => {
                let CorpusModel::TopicMixture { in_topic_fraction, .. } = self.cfg.model else {
                    unreachable!()
                };
                let topic = &self.topics[pick.sample(&mut self.rng)];
                for _ in 0..tokens {
                    let t = if self.rng.gen::<f64>() < in_topic_fraction {
                        topic.terms[topic.sampler.sample(&mut self.rng)]
                    } else {
                        self.global.sample(&mut self.rng) as u32
                    };
                    *self.counts.entry(t).or_insert(0) += 1;
                }
            }
            _ => {
                for _ in 0..tokens {
                    let t = self.global.sample(&mut self.rng) as u32;
                    *self.counts.entry(t).or_insert(0) += 1;
                }
            }
        }

        self.counts.iter().map(|(&t, &tf)| (TermId(t), 1.0 + (tf as f32).ln())).collect()
    }

    /// Generate one full (normalized) document.
    pub fn generate(&mut self, id: DocId, arrival: Timestamp) -> Document {
        let pairs = self.sample_term_pairs();
        Document::new(id, pairs, arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = DocumentGenerator::new(CorpusConfig::small_flat(1000, 50, 7));
        let mut b = DocumentGenerator::new(CorpusConfig::small_flat(1000, 50, 7));
        for i in 0..5 {
            assert_eq!(a.generate(DocId(i), i as f64), b.generate(DocId(i), i as f64));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DocumentGenerator::new(CorpusConfig::small_flat(1000, 50, 7));
        let mut b = DocumentGenerator::new(CorpusConfig::small_flat(1000, 50, 8));
        assert_ne!(a.generate(DocId(0), 0.0), b.generate(DocId(0), 0.0));
    }

    #[test]
    fn documents_are_normalized_and_sized() {
        let mut g = DocumentGenerator::new(CorpusConfig::small_flat(5000, 100, 1));
        for i in 0..20 {
            let d = g.generate(DocId(i), 0.0);
            assert!(d.vector.is_normalized());
            // Distinct terms <= tokens; lower bound loose because hot Zipf
            // terms repeat.
            assert!(d.vector.len() >= 10, "suspiciously few terms: {}", d.vector.len());
            assert!(d.vector.len() <= 131);
        }
    }

    #[test]
    fn zipf_skew_shows_in_term_popularity() {
        let mut g = DocumentGenerator::new(CorpusConfig::small_flat(2000, 200, 2));
        let mut hot = 0usize;
        let mut total = 0usize;
        for i in 0..50 {
            let d = g.generate(DocId(i), 0.0);
            total += 1;
            if d.vector.weight(TermId(0)) > 0.0 {
                hot += 1;
            }
        }
        // Term 0 (rank 0) should appear in almost every document.
        assert!(hot as f64 / total as f64 > 0.9, "{hot}/{total}");
    }

    #[test]
    fn topic_mixture_produces_co_occurrence() {
        let cfg = CorpusConfig {
            vocab_size: 10_000,
            avg_tokens: 120,
            length_jitter: 0.2,
            zipf_exponent: 1.0,
            model: CorpusModel::TopicMixture {
                num_topics: 20,
                terms_per_topic: 100,
                in_topic_fraction: 0.9,
            },
            seed: 3,
        };
        let mut g = DocumentGenerator::new(cfg);
        // Co-occurrence proxy: in a topical corpus, pairwise similarities
        // are *bimodal* — same-topic pairs share whole sub-vocabularies,
        // cross-topic pairs share only background terms. A flat Zipf corpus
        // has a uniform similarity level. Compare the spread (std dev).
        let docs: Vec<Document> = (0..40).map(|i| g.generate(DocId(i), 0.0)).collect();
        let mut flat_g = DocumentGenerator::new(CorpusConfig::small_flat(10_000, 120, 3));
        let flat: Vec<Document> = (0..40).map(|i| flat_g.generate(DocId(i), 0.0)).collect();
        let cos_spread = |ds: &[Document]| {
            let mut sims = Vec::new();
            for i in 0..ds.len() {
                for j in (i + 1)..ds.len() {
                    sims.push(ds[i].vector.dot(&ds[j].vector));
                }
            }
            let mean = sims.iter().sum::<f64>() / sims.len() as f64;
            let var = sims.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / sims.len() as f64;
            var.sqrt()
        };
        let (topical, flat) = (cos_spread(&docs), cos_spread(&flat));
        assert!(topical > flat * 2.0, "topical spread {topical} vs flat spread {flat}");
    }
}
