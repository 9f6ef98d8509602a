//! The exact ledger, pinned as a golden file.
//!
//! Every paper figure and every modeled second is a function of the
//! per-pass, per-node ledger deltas, so a change that claims "same
//! numbers" (a counting-kernel swap, a ledger refactor) must leave every
//! one of them bit-identical. This test watches every field exactly, on
//! one small fixed-seed dataset mined three passes deep by Cumulate and by
//! NPGM / HPGM / H-HPGM / H-HPGM-FGD at 4 nodes under a memory budget that
//! makes NPGM fragment and FGD duplicate (FP-Growth's row of the same
//! dataset: `crates/fpg/tests/ledger_golden.rs`).
//!
//! The same runs, observed, plus H-HPGM-FGD at 1 node, pin every
//! counter and histogram of `metrics.json` in `tests/golden/metrics.txt`:
//! the ledger and the obs series that mirror it are charged by one call
//! per event, and both files hold the numbers that call must produce.
//!
//! `GAR_BLESS=1 cargo test -p gar-mining --test ledger_golden` rewrites
//! both golden files; a diff in either is a ledger or metrics change and
//! needs saying so in the PR.

use gar_cluster::ClusterConfig;
use gar_datagen::{DatasetSpec, TransactionGenerator};
use gar_mining::parallel::mine_parallel;
use gar_mining::sequential::cumulate_metered;
use gar_mining::{Algorithm, MiningParams};
use gar_obs::Obs;
use gar_storage::PartitionedDatabase;
use gar_taxonomy::Taxonomy;
use gar_types::ItemId;
use std::fmt::Write as _;
use std::path::PathBuf;

const NODES: usize = 4;
/// Just above ‖C2‖'s 140 kB of entries and a quarter of ‖C3‖'s 525 kB, so
/// NPGM counts pass 3 in four fragments and FGD has free space to
/// duplicate part of the candidates in both passes.
const MEMORY_PER_NODE: u64 = 144 * 1024;

fn dataset() -> (Taxonomy, Vec<Vec<ItemId>>, MiningParams) {
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
    (tax, txns, MiningParams::with_min_support(0.02).max_pass(3))
}

fn rendered_ledger() -> String {
    let (tax, txns, params) = dataset();
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

/// Every counter and histogram the observed runs record, one `key value`
/// line each, under a `#` header per run.
fn rendered_metrics() -> String {
    let (tax, txns, params) = dataset();
    let mut out = String::new();
    for (alg, nodes) in [
        (Algorithm::Npgm, NODES),
        (Algorithm::Hpgm, NODES),
        (Algorithm::HHpgm, NODES),
        (Algorithm::HHpgmFgd, NODES),
        (Algorithm::HHpgmFgd, 1),
    ] {
        let db = PartitionedDatabase::build_in_memory(nodes, txns.iter().cloned()).unwrap();
        let obs = Obs::enabled();
        let cluster = ClusterConfig::new(nodes, MEMORY_PER_NODE).with_obs(obs.clone());
        mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
        writeln!(out, "# {alg} nodes={nodes}").unwrap();
        let m = obs.metrics();
        for (key, value) in &m.counters {
            writeln!(out, "{key} {value}").unwrap();
        }
        for (key, h) in &m.histograms {
            writeln!(out, "{key} {h:?}").unwrap();
        }
    }
    out
}

/// Compares `got` with `tests/golden/<file>` line by line, or rewrites
/// the file under `GAR_BLESS`.
fn check_golden(file: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("GAR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from {}", i + 1, path.display());
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{file} length");
}

#[test]
fn ledger_matches_golden() {
    check_golden("ledger.txt", &rendered_ledger());
}

#[test]
fn metrics_match_golden() {
    check_golden("metrics.txt", &rendered_metrics());
}

/// A disabled handle must record nothing — the zero-overhead contract.
#[test]
fn disabled_obs_records_nothing() {
    let (tax, txns, params) = dataset();
    let db = PartitionedDatabase::build_in_memory(NODES, txns.into_iter()).unwrap();
    let obs = Obs::disabled();
    let cluster = ClusterConfig::new(NODES, MEMORY_PER_NODE).with_obs(obs.clone());
    mine_parallel(Algorithm::HHpgmFgd, &db, &tax, &params, &cluster).unwrap();
    let m = obs.metrics();
    assert!(m.counters.is_empty());
    assert!(m.histograms.is_empty());
    assert_eq!(
        obs.chrome_trace_json(),
        r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#
    );
}
