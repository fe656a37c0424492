//! Publish-body journal records against the decoder they replay through.
//!
//! The daemon journals each `POST /publish` as its body, byte for byte, and
//! recovery runs that body back through `wire::decode_publish`. For every
//! generated body the decoder accepts, the command recovered after a
//! reopen must hold exactly the documents the decoder returned — the
//! request the live server applied — bit for bit.

#[path = "support/publish_bodies.rs"]
mod publish_bodies;

use ctk_core::{PublishRequest, ReplayCommand};
use ctk_server::wire::decode_publish;
use ctk_server::{publish_body_payload, FsyncPolicy, Journal, JournalConfig};
use proptest::prelude::*;
use publish_bodies::{bits, body, Dice};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recovered_body_records_are_what_decode_publish_decoded(seed in 0u64..u64::MAX) {
        let mut dice = Dice(seed);
        let wanted = 1 + dice.below(8) as usize;
        let mut accepted = Vec::new();
        while accepted.len() < wanted {
            let text = body(&mut dice);
            if let Ok(request) = decode_publish(&text) {
                accepted.push((text, request));
            }
        }

        let dir = std::env::temp_dir()
            .join(format!("ctk-journal-bodies-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Segment caps from 64 B to 2 MiB, so replay also crosses rotations.
        let config = JournalConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .max_segment_bytes(64 << dice.below(16));
        let (mut journal, _) = Journal::open(config.clone()).map_err(|e| e.to_string())?;
        for (text, _) in &accepted {
            journal
                .append_payload(publish_body_payload(text).as_bytes())
                .map_err(|e| e.to_string())?;
        }
        drop(journal);
        let recovered = Journal::open(config).map(|(_, recovery)| recovery.commands);
        let _ = std::fs::remove_dir_all(&dir);
        let recovered = recovered.map_err(|e| e.to_string())?;

        prop_assert_eq!(recovered.len(), accepted.len());
        for (command, (text, request)) in recovered.into_iter().zip(accepted) {
            let ReplayCommand::Publish { docs } = command else {
                return Err(format!("{text:?} recovered as {command:?}"));
            };
            prop_assert_eq!(bits(&PublishRequest::from(docs)), bits(&request), "{:?}", text);
        }
    }
}
