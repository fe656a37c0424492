//! Sparse vectors, documents, queries and scored results.
//!
//! Both documents and queries are sparse term-weight vectors. Cosine
//! similarity is the dot product of the **unit-normalized** vectors, so both
//! are L2-normalized once at construction and every algorithm downstream
//! works with plain dot products (paper §II, Eq. 1).

use crate::float::OrdF64;
use crate::ids::{DocId, QueryId, TermId};
use serde::{Deserialize, Serialize};

/// Logical stream time, in abstract "seconds". The stream driver assigns
/// monotonically non-decreasing timestamps to arriving documents.
pub type Timestamp = f64;

/// The tombstone sentinel for stored posting weights.
///
/// Every weight-bearing store in the workspace — the plain `Vec` postings,
/// the compressed block codec, impact lists, zone rebuilds — marks a deleted
/// slot by zeroing its weight. Live weights are validated strictly positive
/// at registration, so exact `== 0.0` comparison is unambiguous; this
/// constant (and [`is_tombstone_weight`]) is the single definition all of
/// them share, so a storage format can't drift from the in-RAM stores.
pub const TOMBSTONE_WEIGHT: f32 = 0.0;

/// True when a stored weight is the tombstone sentinel.
#[inline]
pub fn is_tombstone_weight(weight: f32) -> bool {
    weight == TOMBSTONE_WEIGHT
}

/// A sparse term-weight vector: strictly increasing `TermId`s, strictly
/// positive finite weights.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseVector {
    entries: Vec<(TermId, f32)>,
}

impl SparseVector {
    /// Build from arbitrary `(term, weight)` pairs: sorts by term, merges
    /// duplicates by summing, and drops non-positive / non-finite weights.
    pub fn from_pairs(mut pairs: Vec<(TermId, f32)>) -> Self {
        pairs.retain(|&(_, w)| w.is_finite() && w > 0.0);
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let mut entries: Vec<(TermId, f32)> = Vec::with_capacity(pairs.len());
        for (t, w) in pairs {
            match entries.last_mut() {
                Some(last) if last.0 == t => last.1 += w,
                _ => entries.push((t, w)),
            }
        }
        SparseVector { entries }
    }

    /// Build from pairs assumed sorted, unique and positive (checked in debug).
    pub fn from_sorted_unchecked(entries: Vec<(TermId, f32)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|&(_, w)| w > 0.0 && w.is_finite()));
        SparseVector { entries }
    }

    /// Number of distinct terms.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the vector has no terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(term, weight)` in increasing term order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (TermId, f32)> + '_ {
        self.entries.iter().copied()
    }

    /// The underlying sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[(TermId, f32)] {
        &self.entries
    }

    /// Weight of `term`, or 0 when absent. O(log n).
    pub fn weight(&self, term: TermId) -> f32 {
        match self.entries.binary_search_by_key(&term, |&(t, _)| t) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| (w as f64) * (w as f64)).sum::<f64>().sqrt()
    }

    /// Scale to unit norm. A zero vector is left unchanged.
    ///
    /// Entries whose scaled weight underflows `f32` to zero (a subnormal
    /// term inside a vector with a much larger norm) are dropped: a weight
    /// of exactly `0.0` is the tombstone marker in the ID-ordered postings
    /// lists, so letting one through registration would silently desync the
    /// tombstone accounting downstream.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            let inv = (1.0 / n) as f32;
            for e in &mut self.entries {
                e.1 *= inv;
            }
            self.entries.retain(|&(_, w)| w > 0.0);
        }
    }

    /// True when within `1e-3` of unit norm (or empty).
    pub fn is_normalized(&self) -> bool {
        self.is_empty() || (self.norm() - 1.0).abs() < 1e-3
    }

    /// Dot product by merge-join over the two sorted entry lists.
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 as f64 * b[j].1 as f64;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

/// A stream document: id, unit-normalized term vector, arrival time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    pub id: DocId,
    pub vector: SparseVector,
    pub arrival: Timestamp,
}

impl Document {
    /// Build a document, normalizing the vector.
    pub fn new(id: DocId, pairs: Vec<(TermId, f32)>, arrival: Timestamp) -> Self {
        let mut vector = SparseVector::from_pairs(pairs);
        vector.normalize();
        Document { id, vector, arrival }
    }
}

/// What a user registers: a keyword preference vector and the result size `k`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    pub vector: SparseVector,
    pub k: usize,
}

/// Errors raised when validating a [`QuerySpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySpecError {
    /// `k` must be at least 1.
    ZeroK,
    /// The keyword vector must contain at least one positive-weight term.
    EmptyVector,
}

impl std::fmt::Display for QuerySpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuerySpecError::ZeroK => write!(f, "query k must be >= 1"),
            QuerySpecError::EmptyVector => write!(f, "query vector must be non-empty"),
        }
    }
}

impl std::error::Error for QuerySpecError {}

impl QuerySpec {
    /// Build and validate a query spec, normalizing the vector.
    pub fn new(pairs: Vec<(TermId, f32)>, k: usize) -> Result<Self, QuerySpecError> {
        if k == 0 {
            return Err(QuerySpecError::ZeroK);
        }
        let mut vector = SparseVector::from_pairs(pairs);
        // After normalizing: a weight sum that overflows f32 normalizes to
        // NaN, which `normalize` drops.
        vector.normalize();
        if vector.is_empty() {
            return Err(QuerySpecError::EmptyVector);
        }
        Ok(QuerySpec { vector, k })
    }

    /// Convenience constructor with uniform weights over `terms`.
    pub fn uniform(terms: &[TermId], k: usize) -> Result<Self, QuerySpecError> {
        QuerySpec::new(terms.iter().map(|&t| (t, 1.0)).collect(), k)
    }
}

/// A registered query: id plus its spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    pub id: QueryId,
    pub spec: QuerySpec,
}

/// One entry of a query's top-k result.
///
/// Ordering: higher score first; ties broken by **smaller** doc id so that
/// result lists are fully deterministic across algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoredDoc {
    pub doc: DocId,
    pub score: OrdF64,
}

impl ScoredDoc {
    pub fn new(doc: DocId, score: f64) -> Self {
        ScoredDoc { doc, score: OrdF64::new(score) }
    }
}

impl PartialOrd for ScoredDoc {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoredDoc {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Descending score, then ascending doc id.
        other.score.cmp(&self.score).then_with(|| self.doc.cmp(&other.doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)).collect())
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let s = v(&[(3, 1.0), (1, 2.0), (3, 0.5), (2, -1.0), (4, f32::NAN)]);
        assert_eq!(
            s.as_slice(),
            &[(TermId(1), 2.0), (TermId(3), 1.5)],
            "sorted, merged, negatives and NaN dropped"
        );
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut s = v(&[(1, 3.0), (2, 4.0)]);
        s.normalize();
        assert!((s.norm() - 1.0).abs() < 1e-6);
        assert!(s.is_normalized());
        assert!((s.weight(TermId(1)) - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_drops_underflowed_weights() {
        // 1e-42 is subnormal but positive; dividing by the ~1e4 norm lands
        // below f32::MIN_POSITIVE and underflows to exactly 0.0.
        let mut s = v(&[(1, 1e-42), (2, 1e4)]);
        s.normalize();
        assert_eq!(s.len(), 1, "underflowed entry must be dropped, not kept at 0.0");
        assert_eq!(s.weight(TermId(1)), 0.0);
        assert!(s.as_slice().iter().all(|&(_, w)| w > 0.0));
        assert!(s.is_normalized());
    }

    #[test]
    fn zero_vector_normalize_is_noop() {
        let mut s = SparseVector::default();
        s.normalize();
        assert!(s.is_empty());
        assert!(s.is_normalized());
    }

    #[test]
    fn dot_merge_join() {
        let a = v(&[(1, 1.0), (3, 2.0), (5, 3.0)]);
        let b = v(&[(2, 1.0), (3, 4.0), (5, 1.0)]);
        assert!((a.dot(&b) - (2.0 * 4.0 + 3.0 * 1.0)).abs() < 1e-9);
        assert_eq!(a.dot(&SparseVector::default()), 0.0);
    }

    #[test]
    fn weight_lookup() {
        let a = v(&[(1, 1.0), (3, 2.0)]);
        assert_eq!(a.weight(TermId(3)), 2.0);
        assert_eq!(a.weight(TermId(2)), 0.0);
    }

    #[test]
    fn query_spec_validation() {
        assert_eq!(QuerySpec::new(vec![(TermId(1), 1.0)], 0), Err(QuerySpecError::ZeroK));
        assert_eq!(QuerySpec::new(vec![], 3), Err(QuerySpecError::EmptyVector));
        assert_eq!(
            QuerySpec::new(vec![(TermId(1), -1.0)], 3),
            Err(QuerySpecError::EmptyVector),
            "all-nonpositive weights leave an empty vector"
        );
        // The duplicates merge into a sum that overflows f32 to +inf, which
        // normalizes to NaN and is dropped: nothing is left to match.
        assert_eq!(
            QuerySpec::new(vec![(TermId(1), 3e38), (TermId(1), 3e38)], 3),
            Err(QuerySpecError::EmptyVector),
            "a vector that normalizes to empty is refused"
        );
        let q = QuerySpec::uniform(&[TermId(1), TermId(2)], 5).unwrap();
        assert_eq!(q.k, 5);
        assert!(q.vector.is_normalized());
    }

    #[test]
    fn document_is_normalized_at_construction() {
        let d = Document::new(DocId(1), vec![(TermId(1), 2.0), (TermId(9), 5.0)], 0.0);
        assert!(d.vector.is_normalized());
    }

    #[test]
    fn scored_doc_ordering() {
        let a = ScoredDoc::new(DocId(1), 2.0);
        let b = ScoredDoc::new(DocId(2), 3.0);
        let c = ScoredDoc::new(DocId(3), 2.0);
        let mut xs = vec![a, b, c];
        xs.sort();
        // Descending score; tie between a and c broken by smaller doc id.
        assert_eq!(xs, vec![b, a, c]);
    }
}
