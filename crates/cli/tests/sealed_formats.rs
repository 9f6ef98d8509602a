//! One corruption suite over all six persisted formats.
//!
//! Every file this workspace writes — `GFP2` partitions, `GTAX`
//! taxonomies, `GOUT` mining outputs, `GCKP`/`GFPC` checkpoints, `GRUL`
//! rule stores — goes through the same seal (`gar_types::bytes`), so the
//! same three properties must hold for each of them, checked here on one
//! small valid file per format:
//!
//! 1. flipping any single byte is reported as `Error::Corrupt`;
//! 2. cutting the file at any length is reported as `Error::Corrupt`;
//! 3. a body that is damaged *and correctly re-sealed* — so the checksum
//!    cannot help — with `u32::MAX` written over any four bytes loads or
//!    is `Error::Corrupt`: no panic, and no allocation sized by the
//!    damaged field (a decoder that trusted it would ask for gigabytes
//!    and abort the test process).

use gar_fpg::FpgCheckpoint;
use gar_mining::checkpoint::{load_checkpoint, save_checkpoint, Checkpoint, CheckpointPass};
use gar_mining::persist::{load_output, save_output};
use gar_mining::report::LargePass;
use gar_mining::rules::Rule;
use gar_mining::{Algorithm, MiningOutput};
use gar_serve::RuleStore;
use gar_storage::FlatPartition;
use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
use gar_types::bytes::{seal, unseal};
use gar_types::{iset, Error, ItemId, Result};
use std::path::Path;

/// One persisted format: how to write a small valid file and how to
/// load it back.
struct Format {
    name: &'static str,
    write: fn(&Path),
    load: fn(&Path) -> Result<()>,
}

fn taxonomy() -> Taxonomy {
    let mut b = TaxonomyBuilder::new(8);
    for (c, p) in [(1, 0), (2, 0), (3, 1), (4, 1), (6, 5), (7, 5)] {
        b.edge(c, p).unwrap();
    }
    b.build().unwrap()
}

const FORMATS: &[Format] = &[
    Format {
        name: "GFP",
        write: |p| {
            let txns = [
                vec![ItemId(1), ItemId(2), ItemId(3)],
                vec![],
                vec![ItemId(7)],
            ];
            FlatPartition::from_transactions(txns).write_to(p).unwrap()
        },
        load: |p| FlatPartition::open(p).map(drop),
    },
    Format {
        name: "GTAX",
        write: |p| gar_taxonomy::io::save(&taxonomy(), p).unwrap(),
        load: |p| gar_taxonomy::io::load(p).map(drop),
    },
    Format {
        name: "GOUT",
        write: |p| {
            let out = MiningOutput {
                algorithm: Algorithm::HHpgmFgd,
                num_transactions: 1234,
                min_support_count: 12,
                passes: vec![
                    LargePass {
                        k: 1,
                        itemsets: vec![(iset![1], 100), (iset![2], 50)],
                    },
                    LargePass {
                        k: 2,
                        itemsets: vec![(iset![1, 2], 30)],
                    },
                ],
            };
            save_output(&out, p).unwrap()
        },
        load: |p| load_output(p).map(drop),
    },
    Format {
        name: "GCKP",
        write: |p| {
            let cp = Checkpoint {
                algorithm: Algorithm::HHpgm,
                num_transactions: 500,
                min_support_count: 25,
                item_counts: vec![100, 80, 60],
                passes: vec![CheckpointPass {
                    k: 1,
                    num_candidates: 3,
                    num_duplicated: 0,
                    num_fragments: 1,
                    itemsets: vec![(iset![0], 100), (iset![1], 80)],
                }],
            };
            save_checkpoint(&cp, p).unwrap()
        },
        load: |p| load_checkpoint::<Checkpoint>(p).map(drop),
    },
    Format {
        name: "GFPC",
        write: |p| {
            let cp = FpgCheckpoint {
                num_transactions: 400,
                min_support_count: 8,
                item_counts: vec![100, 80, 60, 40],
                completed: vec![
                    (ItemId(1), vec![(iset![0, 1], 30)]),
                    (ItemId(3), vec![(iset![0, 3], 12), (iset![0, 1, 3], 9)]),
                ],
            };
            save_checkpoint(&cp, p).unwrap()
        },
        load: |p| load_checkpoint::<FpgCheckpoint>(p).map(drop),
    },
    Format {
        name: "GRUL",
        write: |p| {
            let rule = |a, c, sup, conf| Rule {
                antecedent: a,
                consequent: c,
                support_count: sup,
                support: 0.0,
                confidence: conf,
            };
            let rules = vec![
                rule(iset![1], iset![7], 2, 2.0 / 3.0),
                rule(iset![7], iset![1], 2, 1.0),
            ];
            RuleStore::new(rules, taxonomy(), 6).save(p).unwrap()
        },
        load: |p| RuleStore::load(p).map(drop),
    },
];

/// `body` with `u32::MAX` written over the four bytes at `at`, behind a
/// fresh, valid seal.
fn resealed_with_max_at(body: &[u8], at: usize) -> Vec<u8> {
    let mut damaged = body.to_vec();
    damaged[at..at + 4].fill(0xFF);
    seal(damaged)
}

#[test]
fn every_sealed_format_rejects_every_flip_truncation_and_resealed_length() {
    let dir = std::env::temp_dir().join(format!("gar-sealed-formats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for f in FORMATS {
        let path = dir.join(f.name);
        (f.write)(&path);
        let valid = std::fs::read(&path).unwrap();
        (f.load)(&path).unwrap_or_else(|e| panic!("{}: the valid file must load: {e}", f.name));

        let load_damaged = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            (f.load)(&path)
        };
        for i in 0..valid.len() {
            let mut bad = valid.clone();
            bad[i] ^= 0xFF;
            let res = load_damaged(&bad);
            assert!(
                matches!(res, Err(Error::Corrupt(_))),
                "{}: flip at byte {i} of {}: {res:?}",
                f.name,
                valid.len()
            );
        }
        for len in 0..valid.len() {
            let res = load_damaged(&valid[..len]);
            assert!(
                matches!(res, Err(Error::Corrupt(_))),
                "{}: truncation to {len} of {} bytes: {res:?}",
                f.name,
                valid.len()
            );
        }
        let body = unseal(&valid, f.name).unwrap();
        for at in 0..body.len() - 3 {
            let res = load_damaged(&resealed_with_max_at(body, at));
            assert!(
                matches!(res, Ok(()) | Err(Error::Corrupt(_))),
                "{}: u32::MAX at body offset {at}: {res:?}",
                f.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
