//! FP-Growth's row of the exact ledger, pinned as a golden file.
//!
//! The Apriori-family rows live in `crates/mining/tests/ledger_golden.rs`;
//! this is the same dataset, support, depth, node count and memory budget
//! mined by the pattern-growth family, so a change that claims "same
//! numbers" is held to every ledger field per pass and node and to
//! every modeled second, exactly, in both families. A second row mines
//! the same input with `max_pass` unbounded: growth then recurses past
//! depth 4, which is where a kernel that merges or reorders conditional
//! bases would first mischarge `cpu_ticks`.
//!
//! The same runs, observed, plus FP-Growth at 1 node, pin every counter
//! and histogram of `metrics.json` in `tests/golden/metrics.txt`.
//!
//! `GAR_BLESS=1 cargo test -p gar-fpg --test ledger_golden` rewrites both
//! golden files; a diff in either is a ledger or metrics change and needs
//! saying so in the PR.

use gar_cluster::ClusterConfig;
use gar_datagen::{DatasetSpec, TransactionGenerator};
use gar_mining::{MiningParams, ParallelReport};
use gar_obs::Obs;
use gar_storage::PartitionedDatabase;
use std::fmt::Write as _;
use std::path::PathBuf;

const NODES: usize = 4;
const MEMORY_PER_NODE: u64 = 144 * 1024;

fn rendered_ledger() -> String {
    let base = MiningParams::with_min_support(0.02);
    let mut out = String::new();
    render_row(&mut out, "FP-Growth", &base.clone().max_pass(3));
    let deepest = render_row(&mut out, "FP-Growth max_pass=unbounded", &base);
    assert!(deepest >= 5, "the unbounded row must recurse to depth >= 4");
    out
}

/// Mines the ledger dataset at `nodes` nodes, reporting into `obs`.
fn mine(params: &MiningParams, nodes: usize, obs: Obs) -> ParallelReport {
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
    let db = PartitionedDatabase::build_in_memory(nodes, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(nodes, MEMORY_PER_NODE).with_obs(obs);
    gar_fpg::mine_parallel(&db, &tax, params, &cluster).unwrap()
}

/// Appends one row; returns the size of the largest itemset mined.
fn render_row(out: &mut String, label: &str, params: &MiningParams) -> usize {
    let rep = mine(params, NODES, Obs::disabled());
    writeln!(out, "{label} modeled_seconds={:?}", rep.modeled_seconds).unwrap();
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
    rep.output.passes.last().map_or(0, |p| p.k)
}

/// Every counter and histogram the observed runs record, one `key value`
/// line each, under a `#` header per run.
fn rendered_metrics() -> String {
    let base = MiningParams::with_min_support(0.02);
    let mut out = String::new();
    for (label, params, nodes) in [
        ("FP-Growth", base.clone().max_pass(3), NODES),
        ("FP-Growth max_pass=unbounded", base.clone(), NODES),
        ("FP-Growth", base.max_pass(3), 1),
    ] {
        let obs = Obs::enabled();
        mine(&params, nodes, obs.clone());
        writeln!(out, "# {label} nodes={nodes}").unwrap();
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

/// A disabled handle must record nothing — the zero-overhead contract
/// holds for the FP-Growth driver too.
#[test]
fn disabled_obs_records_nothing() {
    let obs = Obs::disabled();
    mine(&MiningParams::with_min_support(0.02), NODES, obs.clone());
    let m = obs.metrics();
    assert!(m.counters.is_empty());
    assert!(m.histograms.is_empty());
}
