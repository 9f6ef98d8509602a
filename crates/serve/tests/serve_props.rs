//! Property tests for the serving layer's two codecs: the `GRUL` store
//! and the wire protocol. Arbitrary values round-trip exactly; random
//! corruption errors cleanly (never panics, never over-allocates).

use gar_mining::rules::Rule;
use gar_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    BatchAnswer, Request, Response, PROTOCOL_VERSION,
};
use gar_serve::{Recommendation, RuleStore};
use gar_taxonomy::TaxonomyBuilder;
use gar_types::{ItemId, Itemset};
use proptest::prelude::*;

const NUM_ITEMS: u32 = 60;

/// A random flat taxonomy is enough here: the store embeds whatever
/// hierarchy it is given, and `determinism.rs` covers mined ones.
fn arb_itemset() -> impl Strategy<Value = Itemset> {
    proptest::collection::btree_set(0u32..NUM_ITEMS, 1..5)
        .prop_map(|s| Itemset::from_unsorted(s.into_iter().map(ItemId).collect()))
}

fn arb_rules() -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec((arb_itemset(), arb_itemset(), 0u64..100, 0u32..1001), 0..20)
        .prop_map(|raw| {
            raw.into_iter()
                .map(|(a, c, sup, conf_ppm)| Rule {
                    antecedent: a,
                    consequent: c,
                    support_count: sup,
                    support: sup as f64 / 100.0,
                    confidence: f64::from(conf_ppm) / 1000.0,
                })
                .collect()
        })
}

fn arb_basket() -> impl Strategy<Value = Vec<ItemId>> {
    proptest::collection::vec(0u32..10_000, 0..12).prop_map(|v| v.into_iter().map(ItemId).collect())
}

proptest! {
    #[test]
    fn store_round_trips_through_disk(rules in arb_rules(), n_txn in 100u64..1_000) {
        // support_count stays below n_txn by construction (0..100).
        let tax = TaxonomyBuilder::new(NUM_ITEMS).build().unwrap();
        let store = RuleStore::new(rules, tax, n_txn);
        let path = std::env::temp_dir().join(format!(
            "gar-serve-prop-{}-{n_txn}-{}.grul",
            std::process::id(),
            store.rules.len()
        ));
        store.save(&path).unwrap();
        let loaded = RuleStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.rules, store.rules);
        prop_assert_eq!(loaded.num_transactions, store.num_transactions);
        prop_assert_eq!(loaded.taxonomy.num_items(), store.taxonomy.num_items());
    }

    #[test]
    fn requests_round_trip(basket in arb_basket(), top_k in 0u32..1000) {
        let req = Request::QueryV2 {
            version: PROTOCOL_VERSION,
            basket,
            top_k,
            budget_ms: 0,
        };
        prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    #[test]
    fn responses_round_trip(raw in proptest::collection::vec(
        (proptest::collection::btree_set(0u32..1000, 1..5), 0u64..500, 0u32..1001),
        0..10,
    )) {
        let recs: Vec<Recommendation> = raw
            .into_iter()
            .map(|(set, sup, conf_ppm)| {
                let confidence = f64::from(conf_ppm) / 1000.0;
                Recommendation {
                    consequent: Itemset::from_unsorted(
                        set.into_iter().map(ItemId).collect(),
                    ),
                    support_count: sup,
                    confidence,
                    score: confidence * sup as f64 / 500.0,
                }
            })
            .collect();
        let resp = Response::ResultsV2 {
            epoch: 1,
            shards_missing: 0,
            recs,
        };
        prop_assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn batch_requests_round_trip(
        baskets in proptest::collection::vec(arb_basket(), 0..6),
        top_k in 0u32..1000,
        budget_ms in 0u32..10_000,
    ) {
        let req = Request::QueryBatch {
            version: PROTOCOL_VERSION,
            baskets,
            top_k,
            budget_ms,
        };
        prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    #[test]
    fn batch_responses_round_trip(
        epoch in 0u64..1_000_000,
        raw in proptest::collection::vec(
            (
                0u32..3,
                proptest::collection::vec(
                    (proptest::collection::btree_set(0u32..1000, 1..4), 0u64..500, 0u32..1001),
                    0..4,
                ),
            ),
            0..6,
        ),
    ) {
        let answers: Vec<BatchAnswer> = raw
            .into_iter()
            .map(|(missing, recs)| BatchAnswer {
                shards_missing: missing,
                recs: recs
                    .into_iter()
                    .map(|(set, sup, conf_ppm)| {
                        let confidence = f64::from(conf_ppm) / 1000.0;
                        Recommendation {
                            consequent: Itemset::from_unsorted(
                                set.into_iter().map(ItemId).collect(),
                            ),
                            support_count: sup,
                            confidence,
                            score: confidence * sup as f64 / 500.0,
                        }
                    })
                    .collect(),
            })
            .collect();
        let resp = Response::ResultsBatch { epoch, answers };
        prop_assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn corrupted_batch_frames_never_panic(
        baskets in proptest::collection::vec(arb_basket(), 0..4),
    ) {
        // Exhaustive over the frame: EVERY truncation must error or
        // report a clean partial read, and EVERY single-byte flip must
        // be caught by the checksum — on the new batch tags, never a
        // panic or a silent wrong decode.
        let payload = encode_request(&Request::QueryBatch {
            version: PROTOCOL_VERSION,
            baskets,
            top_k: 3,
            budget_ms: 25,
        });
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        for cut in 0..frame.len() {
            drop(read_frame(&mut std::io::Cursor::new(&frame[..cut])));
        }
        for flip in 0..frame.len() {
            let mut bad = frame.clone();
            bad[flip] ^= 0x01;
            if let Ok(Some(p)) = read_frame(&mut std::io::Cursor::new(&bad)) {
                prop_assert_eq!(p, payload.clone());
                prop_assert!(false, "single-bit flip went undetected at byte {}", flip);
            }
        }
        // And the payload itself, truncated at every boundary behind a
        // valid frame, must decode-error cleanly.
        for cut in 0..payload.len() {
            drop(decode_request(&payload[..cut]));
        }
    }

    #[test]
    fn corrupted_frames_never_panic(
        basket in arb_basket(),
        cut in 0usize..200,
        flip in 0usize..200,
    ) {
        let payload = encode_request(&Request::QueryV2 {
            version: PROTOCOL_VERSION,
            basket,
            top_k: 3,
            budget_ms: 0,
        });
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        // Truncation: must error or report clean EOF, never panic.
        let cut = cut.min(frame.len());
        drop(read_frame(&mut std::io::Cursor::new(&frame[..cut])));
        // Byte flip: a full-length frame with one damaged byte must
        // never decode to Ok(Some(original)) silently being wrong —
        // the checksum (or length guard) catches it.
        let flip = flip % frame.len();
        let mut bad = frame.clone();
        bad[flip] ^= 0x01;
        if let Ok(Some(p)) = read_frame(&mut std::io::Cursor::new(&bad)) {
            // Only reachable if the flip landed in the length field and
            // produced another checksum-valid framing — impossible with
            // a single-bit flip, so reaching here at all is a failure.
            prop_assert_eq!(p, payload);
            prop_assert!(false, "single-bit flip went undetected");
        }
    }

    #[test]
    fn garbage_payloads_error_cleanly(
        bytes in proptest::collection::vec(0u32..256, 0..64)
            .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
    ) {
        drop(decode_request(&bytes));
        drop(decode_response(&bytes));
    }

    #[test]
    fn garbage_store_files_error_cleanly(
        bytes in proptest::collection::vec(0u32..256, 0..128)
            .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
    ) {
        let path = std::env::temp_dir().join(format!(
            "gar-serve-garbage-{}-{}.grul",
            std::process::id(),
            bytes.len()
        ));
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(RuleStore::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
