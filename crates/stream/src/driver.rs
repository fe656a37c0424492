//! The stream driver: generator + clock → a reproducible document stream,
//! one document at a time ([`StreamDriver::next_document`], or the driver
//! as an iterator) or a batch at a time ([`StreamDriver::take_batch`]).

use crate::clock::ArrivalClock;
use crate::corpus::{CorpusConfig, DocumentGenerator};
use ctk_common::{DocId, Document, Timestamp};
use rand::{rngs::StdRng, SeedableRng};

/// Produces the document stream: monotone ids, non-decreasing timestamps.
pub struct StreamDriver {
    generator: DocumentGenerator,
    clock: ArrivalClock,
    clock_rng: StdRng,
    now: Timestamp,
    next_id: u64,
}

impl StreamDriver {
    pub fn new(corpus: CorpusConfig, clock: ArrivalClock) -> Self {
        let clock_seed = corpus.seed.rotate_left(17) ^ 0xDEAD_BEEF;
        StreamDriver {
            generator: DocumentGenerator::new(corpus),
            clock,
            clock_rng: StdRng::seed_from_u64(clock_seed),
            now: 0.0,
            next_id: 0,
        }
    }

    /// Current stream time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of documents emitted so far.
    pub fn emitted(&self) -> u64 {
        self.next_id
    }

    /// Produce the next document.
    pub fn next_document(&mut self) -> Document {
        self.now += self.clock.next_gap(&mut self.clock_rng);
        let id = DocId(self.next_id);
        self.next_id += 1;
        self.generator.generate(id, self.now)
    }

    /// Produce a batch of `n` documents.
    pub fn take_batch(&mut self, n: usize) -> Vec<Document> {
        (0..n).map(|_| self.next_document()).collect()
    }
}

impl Iterator for StreamDriver {
    type Item = Document;

    fn next(&mut self) -> Option<Document> {
        Some(self.next_document())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_times_are_monotone() {
        let mut d = StreamDriver::new(CorpusConfig::small_flat(1000, 40, 1), ArrivalClock::unit());
        let docs = d.take_batch(20);
        for w in docs.windows(2) {
            assert!(w[1].id > w[0].id);
            assert!(w[1].arrival >= w[0].arrival);
        }
        assert_eq!(d.emitted(), 20);
        assert_eq!(d.now(), 20.0);
    }

    #[test]
    fn reproducible_across_instances() {
        let mk = || StreamDriver::new(CorpusConfig::small_flat(500, 30, 9), ArrivalClock::unit());
        let a = mk().take_batch(10);
        let b = mk().take_batch(10);
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_clock_advances_time() {
        let mut d = StreamDriver::new(
            CorpusConfig::small_flat(500, 30, 9),
            ArrivalClock::Poisson { rate: 2.0 },
        );
        let docs = d.take_batch(50);
        assert!(docs.last().unwrap().arrival > 0.0);
        let gaps_equal = docs.windows(2).all(|w| (w[1].arrival - w[0].arrival - 0.5).abs() < 1e-12);
        assert!(!gaps_equal, "poisson gaps must vary");
    }
}
