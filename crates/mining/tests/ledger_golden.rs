//! The exact ledger, pinned as a golden file.
//!
//! Every paper figure and every modeled second is a function of the
//! per-pass, per-node `NodeStats` deltas, so a change that claims "same
//! numbers" (a counting-kernel swap, a ledger refactor) must leave every
//! one of them bit-identical. This test watches every field exactly, on
//! one small fixed-seed dataset mined three passes deep by Cumulate and by
//! NPGM / HPGM / H-HPGM / H-HPGM-FGD at 4 nodes under a memory budget that
//! makes NPGM fragment and FGD duplicate (FP-Growth's row of the same
//! dataset: `crates/fpg/tests/ledger_golden.rs`).
//!
//! `GAR_BLESS=1 cargo test -p gar-mining --test ledger_golden` rewrites
//! `tests/golden/ledger.txt`; a diff in that file is a ledger change and
//! needs saying so in the PR.

use gar_cluster::ClusterConfig;
use gar_datagen::{DatasetSpec, TransactionGenerator};
use gar_mining::parallel::mine_parallel;
use gar_mining::sequential::cumulate_metered;
use gar_mining::{Algorithm, MiningParams};
use gar_storage::PartitionedDatabase;
use std::fmt::Write as _;
use std::path::PathBuf;

const NODES: usize = 4;
/// Just above ‖C2‖'s 140 kB of entries and a quarter of ‖C3‖'s 525 kB, so
/// NPGM counts pass 3 in four fragments and FGD has free space to
/// duplicate part of the candidates in both passes.
const MEMORY_PER_NODE: u64 = 144 * 1024;

fn rendered_ledger() -> String {
    let spec = DatasetSpec {
        name: "ledger".into(),
        num_transactions: 1_500,
        avg_transaction_size: 7.0,
        avg_pattern_size: 4.0,
        num_patterns: 30,
        num_items: 300,
        num_roots: 8,
        fanout: 4.0,
        seed: 17,
    };
    let mut g = TransactionGenerator::new(&spec).unwrap();
    let txns: Vec<_> = g.by_ref().collect();
    let tax = g.into_taxonomy();
    let params = MiningParams::with_min_support(0.02).max_pass(3);

    let mut out = String::new();
    let single = PartitionedDatabase::build_in_memory(1, txns.iter().cloned()).unwrap();
    let (mined, meters) = cumulate_metered(single.partition(0), &tax, &params).unwrap();
    writeln!(out, "Cumulate large={} {meters:?}", mined.num_large()).unwrap();

    let db = PartitionedDatabase::build_in_memory(NODES, txns.into_iter()).unwrap();
    for alg in [
        Algorithm::Npgm,
        Algorithm::Hpgm,
        Algorithm::HHpgm,
        Algorithm::HHpgmFgd,
    ] {
        let cluster = ClusterConfig::new(NODES, MEMORY_PER_NODE);
        let rep = mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
        writeln!(out, "{alg} modeled_seconds={:?}", rep.modeled_seconds).unwrap();
        for p in &rep.pass_reports {
            writeln!(
                out,
                "  pass {} candidates={} duplicated={} fragments={} large={} modeled_seconds={:?}",
                p.k,
                p.num_candidates,
                p.num_duplicated,
                p.num_fragments,
                p.num_large,
                p.modeled_seconds
            )
            .unwrap();
            for (n, d) in p.node_deltas.iter().enumerate() {
                writeln!(out, "    node {n} {d:?}").unwrap();
            }
        }
    }
    out
}

#[test]
fn ledger_matches_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ledger.txt");
    let got = rendered_ledger();
    if std::env::var_os("GAR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "ledger line {} differs from {}",
            i + 1,
            path.display()
        );
    }
    assert_eq!(got.lines().count(), want.lines().count(), "ledger length");
}
