//! `wire::decode_publish` against the tree path it replaced, hostile bytes
//! through the pull reader, and the parser's running time.
//!
//! The tree path — `parse_body` into a `Value`, then `parse_publish` — is
//! the reference: on every generated body the one-pass decoder must return
//! the same `PublishRequest` bit for bit, or refuse whenever the tree path
//! refuses, with the same message for the two documented 400s (an empty
//! batch, a document without `"terms"`).

#[path = "support/publish_bodies.rs"]
mod publish_bodies;

use ctk_common::{DocId, QueryId, ScoredDoc};
use ctk_core::{EventStats, PublishReceipt, PublishRequest, ResultChange};
use ctk_server::wire::{decode_publish, parse_body, parse_publish};
use proptest::prelude::*;
use publish_bodies::{bits, body, Dice};
use serde::Value;
use serde_json::Reader;
use std::time::{Duration, Instant};

const MISSING_TERMS: &str = "each document needs a \"terms\" field";
const EMPTY_PUBLISH: &str = "a publish must carry at least one document";

fn tree_path(text: &str) -> Result<PublishRequest, String> {
    parse_publish(&parse_body(text)?)
}

/// Both decoders on one body; `Err` describes a disagreement.
fn agree(text: &str) -> Result<(), String> {
    match (tree_path(text), decode_publish(text)) {
        (Ok(tree), Ok(direct)) if bits(&tree) == bits(&direct) => Ok(()),
        (Ok(tree), Ok(direct)) => Err(format!("{text:?}: tree {tree:?} but direct {direct:?}")),
        (Err(tree), Err(direct)) => {
            if (tree == MISSING_TERMS || tree == EMPTY_PUBLISH) && tree != direct {
                return Err(format!("{text:?}: tree says {tree:?} but direct says {direct:?}"));
            }
            Ok(())
        }
        (tree, direct) => Err(format!("{text:?}: tree {tree:?} but direct {direct:?}")),
    }
}

#[test]
fn the_documented_refusals_keep_their_messages() {
    for text in [
        "",
        " \n",
        "{}",
        "[]",
        "7",
        r#"{"arrival": 1.0}"#,
        r#"{"arrival": "x"}"#,
        r#"{"docs": [{"terms": [[1, 1.0]]}, {"arrival": 2}]}"#,
        r#"{"docs": [7]}"#,
    ] {
        assert_eq!(decode_publish(text).unwrap_err(), MISSING_TERMS, "{text:?}");
        agree(text).unwrap();
    }
    for text in [
        r#"{"docs": []}"#,
        r#"{"terms": [[1, 1.0]], "docs": [ ]}"#,
        r#"{"docs": [], "docs": [{"terms": []}]}"#,
    ] {
        assert_eq!(decode_publish(text).unwrap_err(), EMPTY_PUBLISH, "{text:?}");
        agree(text).unwrap();
    }
    assert!(decode_publish("{nope").unwrap_err().starts_with("invalid JSON body: "));
    assert_eq!(decode_publish("{nope").unwrap_err(), tree_path("{nope").unwrap_err());
}

#[test]
fn the_decoder_keeps_the_tree_paths_number_rules() {
    // Ids: what `Value::as_u64` accepts, in the u32 range.
    let ids =
        decode_publish(r#"{"terms": [[7, 1], [7.0, 1], [7e0, 1], [-0, 1], [4294967295, 1]]}"#)
            .unwrap();
    let terms: Vec<u32> = ids.docs()[0].0.iter().map(|(t, _)| t.0).collect();
    assert_eq!(terms, [7, 7, 7, 0, u32::MAX]);
    for refused in ["-1", "7.5", "4294967296", "1e300", "\"7\""] {
        let text = format!(r#"{{"terms": [[{refused}, 1.0]]}}"#);
        assert!(decode_publish(&text).is_err(), "{text}");
        agree(&text).unwrap();
    }
    // Weights: parsed as f64, then narrowed. This text sits a hair above
    // the midpoint of two f32s: f64 parsing lands on the midpoint and the
    // narrowing ties to even, while parsing it as f32 directly rounds up.
    let text = r#"{"terms": [[1, 1.0000000596046447753906251]]}"#;
    let weight = decode_publish(text).unwrap().docs()[0].0[0].1;
    assert_eq!(
        weight.to_bits(),
        ("1.0000000596046447753906251".parse::<f64>().unwrap() as f32).to_bits()
    );
    assert_ne!(weight.to_bits(), "1.0000000596046447753906251".parse::<f32>().unwrap().to_bits());
    agree(text).unwrap();
    // Shape selection, first-match-wins, skipped unknowns.
    let batch = decode_publish(r#"{"terms": "ignored", "arrival": [], "docs": [{"x": {"terms": 1}, "arrival": 2, "terms": [[3, 0.5]], "terms": 9, "arrival": "late"}]}"#).unwrap();
    assert_eq!(
        bits(&batch),
        bits(&PublishRequest::from((vec![(ctk_common::TermId(3), 0.5)], 2.0)))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn decode_publish_equals_the_tree_path(seed in 0u64..u64::MAX) {
        let text = body(&mut Dice(seed));
        agree(&text)?;
    }
}

#[test]
fn the_generator_reaches_both_outcomes_and_shapes() {
    // The equivalence above is vacuous if every body is refused.
    let (mut single, mut batch, mut refused) = (0, 0, 0);
    for seed in 0..2000 {
        let text = body(&mut Dice(seed));
        match decode_publish(&text) {
            Ok(_) if text.contains("\"docs\"") => batch += 1,
            Ok(_) => single += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(single > 100 && batch > 100 && refused > 100, "{single} {batch} {refused}");
}

/// Drive every public method of the reader over `text`; the only
/// acceptable outcomes are a value or an `Err`.
fn exercise_reader(text: &str) {
    let tree = Reader::new(text).value();
    let skipped = Reader::new(text).skip_value();
    assert_eq!(
        tree.is_ok(),
        skipped.is_ok(),
        "value and skip_value accept the same text: {text:?}"
    );
    let _ = serde_json::from_str::<Value>(text);
    let _ = decode_publish(text);
    let mut r = Reader::new(text);
    let _ = r.peek();
    let _ = r.clone().string();
    let _ = r.clone().number();
    let _ = r.clone().end();
    if let Ok(mut more) = r.clone().begin_array() {
        let mut r = r.clone();
        let _ = r.begin_array();
        while more {
            if r.skip_value().is_err() {
                break;
            }
            more = r.array_more().unwrap_or(false);
        }
    }
    if let Ok(mut key) = r.clone().begin_object() {
        let _ = r.begin_object();
        while key.is_some() {
            if r.skip_value().is_err() {
                break;
            }
            key = r.next_key().unwrap_or(None);
        }
    }
}

#[test]
fn hostile_bytes_never_panic_the_reader() {
    let mut dice =
        Dice(std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(20260729));
    let alphabet =
        b"{}[]\",:\\ \n-+.eE0123456789tfnu/abrul\x00\x1f\x7f\xc3\xa9\xf0\x9f\x98\x80\xff";
    for _ in 0..20_000 {
        // Raw bytes over a JSON-heavy alphabet (lossily made a `&str`, as
        // the HTTP layer refuses non-UTF-8 bodies before any parser runs)...
        let len = dice.below(40) as usize;
        let raw: Vec<u8> =
            (0..len).map(|_| alphabet[dice.below(alphabet.len() as u64) as usize]).collect();
        exercise_reader(&String::from_utf8_lossy(&raw));
        // ...and plausible bodies with one byte overwritten.
        let mut mutated = body(&mut dice).into_bytes();
        if !mutated.is_empty() {
            let at = dice.below(mutated.len() as u64) as usize;
            mutated[at] = alphabet[dice.below(alphabet.len() as u64) as usize];
        }
        exercise_reader(&String::from_utf8_lossy(&mutated));
    }
}

#[test]
fn deep_nesting_is_refused_not_recursed() {
    // A megabyte of open brackets would take a frame each; the reader stops
    // at its depth limit instead of running the thread's stack out.
    for open in ["[", "{\"a\":", "[{\"docs\":"] {
        let text = open.repeat(200_000);
        assert!(Reader::new(&text).value().is_err());
        assert!(Reader::new(&text).skip_value().is_err());
        assert!(serde_json::from_str::<Value>(&text).is_err());
        assert!(decode_publish(&text).is_err());
        assert!(parse_body(&text).is_err());
    }
    // The limit is generous for real documents and is the same on both paths.
    let nested = |depth: usize| {
        format!("{{\"x\": {}1{}, \"terms\": [[1, 1.0]]}}", "[".repeat(depth), "]".repeat(depth))
    };
    agree(&nested(100)).unwrap();
    assert!(decode_publish(&nested(100)).is_ok());
    agree(&nested(serde_json::MAX_DEPTH)).unwrap();
    assert!(decode_publish(&nested(serde_json::MAX_DEPTH)).is_err());
}

/// Quadratic parsing took minutes on these bodies; linear parsing takes
/// milliseconds. The allowance is a tripwire for the former, not a gate on
/// the latter.
const LINEAR_ALLOWANCE: Duration = Duration::from_secs(20);

#[test]
fn parsing_is_linear_in_the_body() {
    const SIZE: usize = 4 * 1024 * 1024;
    // One long string (with an escape now and then, so it is also copied).
    let long =
        format!(r#"{{"pad": "{}", "terms": [[1, 1.0]]}}"#, "abcdefghijklmno\\n".repeat(SIZE / 17));
    // Many short members.
    let mut many = String::with_capacity(SIZE + 64);
    many.push_str("{\"terms\": [[1, 1.0]]");
    let mut i = 0;
    while many.len() < SIZE {
        many.push_str(&format!(", \"k{i}\": \"v\""));
        i += 1;
    }
    many.push('}');
    let start = Instant::now();
    for text in [&long, &many] {
        assert!(text.len() >= SIZE);
        assert_eq!(decode_publish(text).unwrap().len(), 1);
        assert_eq!(tree_path(text).unwrap().len(), 1);
    }
    assert!(start.elapsed() < LINEAR_ALLOWANCE, "took {:?}", start.elapsed());
}

#[test]
fn a_64_document_receipt_round_trips_through_typed_from_str() {
    // What `http_load` does with every response body.
    let receipt = PublishReceipt {
        doc_ids: (0..64).map(DocId).collect(),
        changes: (0..64u64)
            .flat_map(|d| {
                (0..8u32).map(move |q| ResultChange {
                    query: QueryId(q * 37 + d as u32),
                    inserted: ScoredDoc::new(DocId(d), 1.0 / (1.0 + d as f64 + q as f64)),
                    evicted: (q % 2 == 0).then(|| ScoredDoc::new(DocId(d / 2), 0.001 * q as f64)),
                })
            })
            .collect(),
        stats: (0..64)
            .map(|d| EventStats { iterations: d, updates: 8, ..EventStats::default() })
            .collect(),
    };
    let text = serde_json::to_string(&receipt).unwrap();
    let start = Instant::now();
    let back: PublishReceipt = serde_json::from_str(&text).unwrap();
    assert_eq!(back, receipt);
    assert!(start.elapsed() < LINEAR_ALLOWANCE, "took {:?}", start.elapsed());
}
