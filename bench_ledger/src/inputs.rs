//! Seeded inputs: the query population and the document stream of one run,
//! plus their wire encoding. `--seed` reaches nothing but these generators;
//! the program under test only ever sees what they produce.

use ctk_common::{QuerySpec, TermId, Timestamp};
use ctk_core::PublishRequest;
use ctk_stream::{
    ArrivalClock, CorpusConfig, QueryGenerator, QueryWorkload, StreamDriver, WorkloadConfig,
};
use std::fmt::Write as _;

/// Decay per stream-time unit, on every workload.
pub const LAMBDA: f64 = 1e-3;
/// Result size of every query.
pub const K: usize = 5;

/// One query as both front doors see it: the `POST /queries` body and the
/// spec the daemon builds from that body.
pub struct Query {
    pub body: String,
    pub spec: QuerySpec,
}

/// One publish call (a batch or a single document) in both shapes: the
/// `POST /publish` body and the request the daemon decodes from it.
pub struct Request {
    pub body: String,
    pub publish: PublishRequest,
}

fn mix(seed: u64, salt: u64) -> u64 {
    // splitmix64 finaliser: nearby seeds give unrelated generator states.
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn corpus(seed: u64) -> CorpusConfig {
    CorpusConfig {
        vocab_size: 20_000,
        avg_tokens: 40,
        seed: mix(seed, 1),
        ..CorpusConfig::default()
    }
}

/// Append `[[term, weight], ...]`. With `seen`, also collect the pairs as
/// the daemon's parser reads that text back (`str::parse::<f64>` then
/// `as f32`), so the in-process paths and the oracle hold bit-for-bit what
/// crossed the wire.
fn push_pairs(
    out: &mut String,
    pairs: impl Iterator<Item = (TermId, f32)>,
    mut seen: Option<&mut Vec<(TermId, f32)>>,
) {
    out.push('[');
    for (i, (term, weight)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "[{},", term.0).expect("writing to a String cannot fail");
        let at = out.len();
        write!(out, "{weight}").expect("writing to a String cannot fail");
        if let Some(seen) = seen.as_deref_mut() {
            seen.push((term, out[at..].parse::<f64>().expect("a printed f32 parses") as f32));
        }
        out.push(']');
    }
    out.push(']');
}

/// One document as the wire carries it: its pairs and its arrival time.
pub type WireDoc = (Vec<(TermId, f32)>, Timestamp);

/// The `POST /publish` body of `docs`: a single document object for one
/// document, `{"docs": [...]}` for more — the two shapes the route takes.
/// With `seen`, also collect the documents as the daemon decodes the body.
pub fn encode_publish(docs: &[WireDoc], mut seen: Option<&mut Vec<WireDoc>>) -> String {
    let mut body = String::new();
    if docs.len() > 1 {
        body.push_str("{\"docs\":[");
    }
    for (i, (pairs, arrival)) in docs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"terms\":");
        let mut decoded = Vec::new();
        push_pairs(&mut body, pairs.iter().copied(), seen.as_ref().map(|_| &mut decoded));
        write!(body, ",\"arrival\":{arrival}}}").expect("writing to a String cannot fail");
        if let Some(seen) = seen.as_deref_mut() {
            seen.push((decoded, *arrival));
        }
    }
    if docs.len() > 1 {
        body.push_str("]}");
    }
    body
}

/// `count` Connected queries (terms co-sampled from one generated document).
/// `salt` separates the populations one run draws (standing, tenant).
pub fn queries(seed: u64, salt: u64, count: usize) -> Vec<Query> {
    let workload = WorkloadConfig {
        workload: QueryWorkload::Connected,
        k: K,
        seed: mix(seed, salt),
        ..WorkloadConfig::default()
    };
    let mut generator = QueryGenerator::new(workload, &corpus(seed));
    (0..count)
        .map(|_| {
            let generated = generator.generate();
            let mut body = String::from("{\"terms\":");
            let mut pairs = Vec::new();
            push_pairs(&mut body, generated.vector.iter(), Some(&mut pairs));
            write!(body, ",\"k\":{K}}}").expect("writing to a String cannot fail");
            let spec = QuerySpec::new(pairs, K).expect("generated queries are valid");
            Query { body, spec }
        })
        .collect()
}

/// The seeded document stream, cut into publish calls.
pub struct Stream {
    driver: StreamDriver,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream { driver: StreamDriver::new(corpus(seed), ArrivalClock::unit()) }
    }

    /// The next `count` publish calls of `batch` documents each.
    pub fn requests(&mut self, count: usize, batch: usize) -> Vec<Request> {
        (0..count)
            .map(|_| {
                let docs: Vec<WireDoc> = (0..batch)
                    .map(|_| {
                        let doc = self.driver.next_document();
                        (doc.vector.iter().collect(), doc.arrival)
                    })
                    .collect();
                let mut seen = Vec::with_capacity(batch);
                let body = encode_publish(&docs, Some(&mut seen));
                Request { body, publish: PublishRequest::from(seen) }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_server::wire;

    #[test]
    fn bodies_decode_to_the_stored_requests() {
        let mut stream = Stream::new(7);
        for batch in [1, 3] {
            for request in stream.requests(4, batch) {
                let value = wire::parse_body(&request.body).unwrap();
                assert_eq!(wire::parse_publish(&value).unwrap(), request.publish);
                assert_eq!(request.publish.len(), batch);
            }
        }
        for query in queries(7, 2, 5) {
            let parsed = wire::parse_register(&wire::parse_body(&query.body).unwrap()).unwrap();
            assert_eq!(parsed.spec, query.spec);
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let bodies = |seed| -> Vec<String> {
            let mut all: Vec<String> = queries(seed, 2, 3).into_iter().map(|q| q.body).collect();
            all.extend(Stream::new(seed).requests(3, 2).into_iter().map(|r| r.body));
            all
        };
        assert_eq!(bodies(1), bodies(1));
        assert_ne!(bodies(1), bodies(2));
    }
}
