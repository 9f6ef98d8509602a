//! Seeded chaos for the FP-Growth miner: the recovery unit is the
//! *projection*, and the headline claim is end-to-end — after a node
//! dies mid-projection and the survivors recover in degraded mode, the
//! **rule store file persisted from the recovered run is byte-identical**
//! to the fault-free one.
//!
//! Projection tasks announce themselves via `set_pass(3 + t)`, so a
//! `panic@nXpY` coordinate with `Y >= 3` kills node X inside its
//! `(Y-3)`rd projection — after the base exchange, while results are
//! streaming to the coordinator's checkpoint.

use gar_cluster::{ClusterConfig, FaultOp, FaultPlan};
use gar_fpg::{mine_parallel, mine_parallel_with, owner_of, MineOptions};
use gar_mining::rules::derive_rules;
use gar_mining::{Algorithm, MiningOutput, MiningParams, ParallelReport};
use gar_serve::RuleStore;
use gar_storage::PartitionedDatabase;
use gar_taxonomy::Taxonomy;
use gar_types::{Error, ItemId};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

const BIG_MEMORY: u64 = 1 << 30;
const NODES: usize = 3;
const MIN_CONFIDENCE: f64 = 0.5;

fn dataset() -> (Taxonomy, Vec<Vec<ItemId>>) {
    let spec = gar_datagen::DatasetSpec {
        name: "fpg-chaos".into(),
        num_transactions: 300,
        avg_transaction_size: 6.0,
        avg_pattern_size: 3.0,
        num_patterns: 30,
        num_items: 150,
        num_roots: 15,
        fanout: 4.0,
        seed: 1998,
    };
    let mut g = gar_datagen::TransactionGenerator::new(&spec).unwrap();
    let txns: Vec<_> = g.by_ref().collect();
    (g.into_taxonomy(), txns)
}

fn db(data: &(Taxonomy, Vec<Vec<ItemId>>)) -> PartitionedDatabase {
    PartitionedDatabase::build_in_memory(NODES, data.1.iter().cloned()).unwrap()
}

fn params() -> MiningParams {
    MiningParams::with_min_support(0.05)
}

/// Renders only the logical output — every large itemset with its
/// global support count.
fn rendered(output: &MiningOutput) -> String {
    let mut out = String::new();
    for pass in &output.passes {
        writeln!(out, "pass k={}", pass.k).unwrap();
        for (set, count) in &pass.itemsets {
            writeln!(out, "  {set} x{count}").unwrap();
        }
    }
    out
}

/// Derives rules from a mining output and persists them as a rule store
/// file — the serve layer's on-disk artifact — returning its bytes.
fn rule_store_bytes(output: &MiningOutput, tax: &Taxonomy, path: &Path) -> Vec<u8> {
    let rules = derive_rules(output, MIN_CONFIDENCE, Some(tax));
    assert!(!rules.is_empty(), "no rules derived — assertion is vacuous");
    let store = RuleStore::new(rules, tax.clone(), output.num_transactions);
    store.save(path).unwrap();
    std::fs::read(path).unwrap()
}

fn baseline(data: &(Taxonomy, Vec<Vec<ItemId>>)) -> MiningOutput {
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY);
    let report = mine_parallel(&db(data), &data.0, &params(), &cluster).unwrap();
    let s = rendered(&report.output);
    assert!(s.lines().count() > 5, "baseline suspiciously small:\n{s}");
    report.output
}

/// A non-coordinator node that owns at least two projection tasks —
/// ownership hashes the hierarchy root, so some nodes may own none and
/// the victim must be picked from the fault-free run's pass 1.
fn victim_node(clean: &MiningOutput, tax: &Taxonomy) -> usize {
    let mut owned = vec![0usize; NODES];
    for (set, _) in &clean.passes[0].itemsets {
        owned[owner_of(set.items()[0], tax, NODES)] += 1;
    }
    (1..NODES)
        .find(|&n| owned[n] >= 2)
        .unwrap_or_else(|| panic!("no non-coordinator owns 2+ projections: {owned:?}"))
}

/// A node death mid-projection is recovered in degraded mode and the
/// rule store persisted from the recovered output is byte-identical to
/// the fault-free store.
#[test]
fn mid_projection_panic_recovers_with_identical_rule_store() {
    let data = dataset();
    let clean = baseline(&data);
    let dir = std::env::temp_dir().join(format!("gar-fpg-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean_store = rule_store_bytes(&clean, &data.0, &dir.join("clean.grul"));

    // Pass 3 + t is a node's (t)th projection task; kill the victim in
    // its second one, after the exchange has scattered its base paths.
    let victim = victim_node(&clean, &data.0);
    let plan = FaultPlan::with_seed(5).schedule(FaultOp::Panic, [victim, 4]);
    let spec = plan.render();
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY).with_faults(plan);
    let opts = MineOptions {
        max_node_failures: 1,
        ..MineOptions::default()
    };
    let report = mine_parallel_with(&db(&data), &data.0, &params(), &cluster, &opts)
        .unwrap_or_else(|e| panic!("recovery under `{spec}` failed: {e}"));

    assert_eq!(
        rendered(&report.output),
        rendered(&clean),
        "degraded-mode output diverged under `{spec}`"
    );
    assert_eq!(report.degraded.len(), 1, "expected one degraded-mode note");
    assert!(
        report.degraded[0].contains(&format!("node {victim}")),
        "note should name node {victim}: {}",
        report.degraded[0]
    );
    // The completing attempt ran on the survivors, replaying pass 1 from
    // the in-memory checkpoint.
    assert_eq!(report.num_nodes, NODES - 1);
    assert!(
        report.pass_reports[0].restored,
        "pass 1 should have been restored from the checkpoint"
    );

    // The headline: the *persisted serving artifact* is byte-identical.
    let recovered_store = rule_store_bytes(&report.output, &data.0, &dir.join("recovered.grul"));
    assert_eq!(
        clean_store, recovered_store,
        "rule store bytes diverged after degraded recovery under `{spec}`"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Both miner families recover through one loop, one sink and one
/// rotation, each with its own checkpoint type: kill a node mid-run in
/// either, and the output is byte-identical to the fault-free run, the
/// note comes from the shared loop and names the type's own progress,
/// and the two checkpoint files coexist in one directory.
#[test]
fn one_recovery_loop_serves_both_checkpoint_types() {
    let data = dataset();
    let dir = std::env::temp_dir().join(format!("gar-fpg-shared-loop-{}", std::process::id()));
    let fpg_victim = victim_node(&baseline(&data), &data.0);
    type Mine<'a> = &'a dyn Fn(&ClusterConfig, &MineOptions) -> gar_types::Result<ParallelReport>;
    let apriori_family: Mine = &|cluster, opts| {
        gar_mining::parallel::mine_parallel_with(
            Algorithm::HHpgm,
            &db(&data),
            &data.0,
            &params(),
            cluster,
            opts,
        )
    };
    let pattern_growth: Mine =
        &|cluster, opts| mine_parallel_with(&db(&data), &data.0, &params(), cluster, opts);
    // (miner, victim node, fault pass, checkpoint file, progress phrase)
    let cases = [
        (apriori_family, 1, 2, "mining.ckpt", "resumed after pass 1"),
        (
            pattern_growth,
            fpg_victim,
            4,
            "fpg.ckpt",
            "finished projections restored",
        ),
    ];
    for (mine, victim, pass, file, progress) in cases {
        let clean = mine(
            &ClusterConfig::new(NODES, BIG_MEMORY),
            &MineOptions::default(),
        )
        .unwrap();
        let plan = FaultPlan::with_seed(5).schedule(FaultOp::Panic, [victim, pass]);
        let spec = plan.render();
        let cluster = ClusterConfig::new(NODES, BIG_MEMORY).with_faults(plan);
        let opts = MineOptions {
            checkpoint_dir: Some(dir.clone()),
            max_node_failures: 1,
            ..MineOptions::default()
        };
        let report =
            mine(&cluster, &opts).unwrap_or_else(|e| panic!("{file}: `{spec}` failed: {e}"));
        assert_eq!(
            rendered(&report.output),
            rendered(&clean.output),
            "{file}: degraded-mode output diverged under `{spec}`"
        );
        assert_eq!(report.num_nodes, NODES - 1, "{file}");
        let [note] = &report.degraded[..] else {
            panic!("{file}: expected one note, got {:?}", report.degraded);
        };
        assert!(
            note.starts_with(&format!("node {victim} failed"))
                && note.contains("redistributed partitions")
                && note.contains(progress),
            "{file}: {note}"
        );
        assert!(dir.join(file).exists(), "{file} was never written");
    }
    assert!(dir.join("mining.ckpt").exists() && dir.join("fpg.ckpt").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A survivor that adopted an orphan dies in turn: the last survivor
/// then scans its own partition plus both the adopter's merged ones, and
/// the answer is still byte-identical.
#[test]
fn adopter_death_recovers_again_with_identical_output() {
    let data = dataset();
    let clean = baseline(&data);
    // Node 1 dies in the base exchange (pass 2), which no node leaves
    // before every node has finished it; its partition goes to the first
    // survivor, node 0 of the second attempt, which dies in its first
    // projection task there.
    assert!(
        clean.passes[0].itemsets.iter().any(|(set, _)| owner_of(
            set.items()[0],
            &data.0,
            NODES - 1
        ) == 0),
        "node 0 of two owns no projection to die in"
    );
    let plan = FaultPlan::with_seed(5)
        .schedule(FaultOp::Panic, [1, 2])
        .schedule(FaultOp::Panic, [0, 3]);
    let spec = plan.render();
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY).with_faults(plan);
    let opts = MineOptions {
        max_node_failures: 2,
        ..MineOptions::default()
    };
    let report = mine_parallel_with(&db(&data), &data.0, &params(), &cluster, &opts)
        .unwrap_or_else(|e| panic!("recovery under `{spec}` failed: {e}"));
    assert_eq!(
        rendered(&report.output),
        rendered(&clean),
        "output diverged after two deaths under `{spec}`"
    );
    assert_eq!(report.degraded.len(), 2, "{:?}", report.degraded);
    assert!(
        report.degraded[1].contains("node 0") && report.degraded[1].contains("[0, 1]"),
        "second note should name the adopter and both its partitions: {}",
        report.degraded[1]
    );
    assert_eq!(report.num_nodes, NODES - 2);
}

/// Without a failure budget the same schedule is a hard error naming
/// the dead node — never a hang, never a wrong answer.
#[test]
fn mid_projection_panic_without_budget_is_a_node_failure() {
    let data = dataset();
    let victim = victim_node(&baseline(&data), &data.0);
    let plan = FaultPlan::with_seed(6).schedule(FaultOp::Panic, [victim, 4]);
    let spec = plan.render();
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY).with_faults(plan);
    let err = mine_parallel_with(
        &db(&data),
        &data.0,
        &params(),
        &cluster,
        &MineOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, Error::NodeFailure { node, .. } if node == victim),
        "`{spec}` should fail naming node {victim}, got: {err}"
    );
}

/// Duplicated, delayed, and transiently-failing I/O are absorbed
/// invisibly: the output is byte-identical to the fault-free run.
#[test]
fn tolerated_fault_schedules_preserve_the_output() {
    let data = dataset();
    let clean = rendered(&baseline(&data));
    let mut injected_total = 0u64;
    for seed in 0..3u64 {
        let plan = FaultPlan {
            p_dup: 0.05,
            p_delay: 0.02,
            p_scan_error: 0.05,
            delay: Duration::from_millis(1),
            ..FaultPlan::with_seed(seed)
        };
        let spec = plan.render();
        let cluster = ClusterConfig::new(NODES, BIG_MEMORY).with_faults(plan);
        let report = mine_parallel_with(
            &db(&data),
            &data.0,
            &params(),
            &cluster,
            &MineOptions::default(),
        )
        .unwrap_or_else(|e| panic!("fp-growth under `{spec}` failed: {e}"));
        assert_eq!(
            rendered(&report.output),
            clean,
            "output diverged under tolerated faults `{spec}`"
        );
        assert!(
            report.degraded.is_empty(),
            "`{spec}` should not need degraded mode"
        );
        injected_total += report
            .node_totals
            .iter()
            .map(|s| s.faults_injected)
            .sum::<u64>();
    }
    assert!(injected_total > 0, "no seed injected anything — vacuous");
}

/// Disk-checkpoint round trip at projection granularity: a completed
/// run resumes from `fpg.ckpt` without redoing the mining, and a
/// damaged checkpoint falls back to `.prev` — the answer never changes.
#[test]
fn resume_from_disk_checkpoint_is_byte_identical() {
    let data = dataset();
    let clean = rendered(&baseline(&data));
    let dir = std::env::temp_dir().join(format!("gar-fpg-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let opts = MineOptions {
        checkpoint_dir: Some(dir.clone()),
        ..MineOptions::default()
    };
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY);
    let first = mine_parallel_with(&db(&data), &data.0, &params(), &cluster, &opts).unwrap();
    assert_eq!(rendered(&first.output), clean);

    // Resuming the complete run replays pass 1 and every projection.
    let opts = MineOptions {
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        ..MineOptions::default()
    };
    let resumed = mine_parallel_with(&db(&data), &data.0, &params(), &cluster, &opts).unwrap();
    assert_eq!(
        rendered(&resumed.output),
        clean,
        "resumed output diverged from the fault-free run"
    );
    assert!(
        resumed.pass_reports[0].restored,
        "resume should restore pass 1 from disk"
    );
    assert!(
        resumed.pass_reports[0]
            .node_deltas
            .iter()
            .all(|d| d.scan_passes == 0),
        "restored pass 1 redid disk work"
    );

    // A truncated checkpoint falls back to `.prev` — still the right
    // answer.
    let ckpt = dir.join("fpg.ckpt");
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
    let after_damage = mine_parallel_with(&db(&data), &data.0, &params(), &cluster, &opts).unwrap();
    assert_eq!(
        rendered(&after_damage.output),
        clean,
        "resume after checkpoint damage diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}
