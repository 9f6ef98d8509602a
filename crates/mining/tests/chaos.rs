//! Seeded chaos soak: the fault-tolerance headline claim.
//!
//! For any seeded fault schedule the runtime *tolerates* (duplicated,
//! delayed, or transiently-failing I/O; a node death recovered in
//! degraded mode), the final mining output must be **byte-identical** to
//! the fault-free run. Faults the runtime cannot absorb must surface as
//! the classified error (`Corrupt`, `Timeout`, `NodeFailure`) — never a
//! wrong answer, never a deadlock.
//!
//! Every failure message prints the `FaultPlan::render()` spec so the
//! exact schedule can be replayed with `gar-cli mine --faults <spec>`.
//! `GAR_CHAOS_ITERS` scales the soak (default 3 seeds per algorithm;
//! `cargo xtask chaos` raises it).

use gar_cluster::{ClusterConfig, FaultOp, FaultPlan};
use gar_datagen::{DatasetSpec, TransactionGenerator};
use gar_mining::parallel::{mine_parallel, mine_parallel_with, MineOptions};
use gar_mining::{Algorithm, MiningOutput, MiningParams};
use gar_storage::PartitionedDatabase;
use gar_taxonomy::Taxonomy;
use gar_types::{Error, ItemId};
use std::fmt::Write as _;
use std::time::Duration;

const BIG_MEMORY: u64 = 1 << 30;
const NODES: usize = 3;

fn dataset() -> (Taxonomy, Vec<Vec<ItemId>>) {
    let spec = DatasetSpec {
        name: "chaos".into(),
        num_transactions: 300,
        avg_transaction_size: 6.0,
        avg_pattern_size: 3.0,
        num_patterns: 30,
        num_items: 150,
        num_roots: 5,
        fanout: 4.0,
        seed: 1998,
    };
    let mut g = TransactionGenerator::new(&spec).unwrap();
    let txns: Vec<_> = g.by_ref().collect();
    (g.into_taxonomy(), txns)
}

fn db(tax_txns: &(Taxonomy, Vec<Vec<ItemId>>)) -> PartitionedDatabase {
    PartitionedDatabase::build_in_memory(NODES, tax_txns.1.iter().cloned()).unwrap()
}

fn params() -> MiningParams {
    MiningParams::with_min_support(0.05)
}

/// Renders only the *logical* output — every large itemset with its
/// global support count. Cost-model numbers and per-node ledgers
/// legitimately differ under faults; the answer must not.
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

fn baseline(alg: Algorithm) -> String {
    let data = dataset();
    let db = db(&data);
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY);
    let report = mine_parallel(alg, &db, &data.0, &params(), &cluster).unwrap();
    let s = rendered(&report.output);
    assert!(s.lines().count() > 5, "baseline suspiciously small:\n{s}");
    s
}

fn soak_iters() -> u64 {
    std::env::var("GAR_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Duplication, delay, and transient scan errors are absorbed invisibly:
/// the output is byte-identical to the fault-free run, for every seed.
#[test]
fn tolerated_fault_schedules_preserve_the_output() {
    let data = dataset();
    for alg in [Algorithm::Hpgm, Algorithm::HHpgmFgd, Algorithm::Npgm] {
        let clean = baseline(alg);
        let mut injected_total = 0u64;
        for seed in 0..soak_iters() {
            let plan = FaultPlan {
                p_dup: 0.05,
                p_delay: 0.02,
                p_scan_error: 0.05,
                delay: Duration::from_millis(1),
                ..FaultPlan::with_seed(seed)
            };
            let spec = plan.render();
            let db = db(&data);
            let cluster = ClusterConfig::new(NODES, BIG_MEMORY).with_faults(plan);
            let report = mine_parallel_with(
                alg,
                &db,
                &data.0,
                &params(),
                &cluster,
                &MineOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{alg} under `{spec}` failed: {e}"));
            assert_eq!(
                rendered(&report.output),
                clean,
                "{alg}: output diverged under tolerated faults `{spec}`"
            );
            assert!(
                report.degraded.is_empty(),
                "{alg}: `{spec}` should not need degraded mode"
            );
            injected_total += report
                .node_totals
                .iter()
                .map(|s| s.faults_injected)
                .sum::<u64>();
        }
        assert!(
            injected_total > 0,
            "{alg}: no seed injected anything — soak is vacuous"
        );
    }
}

/// A node death mid-run is recovered in degraded mode: the survivors
/// adopt the dead node's partition, completed passes are restored from
/// the in-memory checkpoint, and the answer is byte-identical.
#[test]
fn node_death_recovers_in_degraded_mode_with_identical_output() {
    let data = dataset();
    let clean = baseline(Algorithm::HHpgmFgd);
    let plan = FaultPlan::with_seed(5).schedule(1, 2, FaultOp::Panic);
    let spec = plan.render();
    let db = db(&data);
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY).with_faults(plan);
    let opts = MineOptions {
        max_node_failures: 1,
        ..MineOptions::default()
    };
    let report = mine_parallel_with(
        Algorithm::HHpgmFgd,
        &db,
        &data.0,
        &params(),
        &cluster,
        &opts,
    )
    .unwrap_or_else(|e| panic!("recovery under `{spec}` failed: {e}"));
    assert_eq!(
        rendered(&report.output),
        clean,
        "degraded-mode output diverged under `{spec}`"
    );
    assert_eq!(report.degraded.len(), 1, "expected one degraded-mode note");
    assert!(
        report.degraded[0].contains("node 1"),
        "note should name the dead node: {}",
        report.degraded[0]
    );
    assert!(
        report.pass_reports.iter().any(|p| p.restored),
        "pass 1 should have been restored from the checkpoint"
    );
    // The completing attempt ran on the survivors.
    assert_eq!(report.num_nodes, NODES - 1);
}

/// Without a failure budget, the same schedule is a hard error carrying
/// the failed node — not a hang, not a wrong answer.
#[test]
fn node_death_without_budget_is_a_node_failure() {
    let data = dataset();
    let plan = FaultPlan::with_seed(6).schedule(1, 2, FaultOp::Panic);
    let spec = plan.render();
    let db = db(&data);
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY).with_faults(plan);
    let err = mine_parallel_with(
        Algorithm::HHpgmFgd,
        &db,
        &data.0,
        &params(),
        &cluster,
        &MineOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, Error::NodeFailure { node: 1, .. }),
        "`{spec}` should fail naming node 1, got: {err}"
    );
}

/// Payload corruption is detected by the envelope checksum and
/// classified as `Corrupt` — it must never count toward the answer.
#[test]
fn corrupted_traffic_is_detected_not_miscounted() {
    let data = dataset();
    let plan = FaultPlan::with_seed(7).schedule(0, 2, FaultOp::Corrupt);
    let spec = plan.render();
    let db = db(&data);
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY).with_faults(plan);
    let err = mine_parallel_with(
        Algorithm::Hpgm,
        &db,
        &data.0,
        &params(),
        &cluster,
        &MineOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, Error::Corrupt(_)),
        "`{spec}` should surface as Corrupt, got: {err}"
    );
}

/// A hung node is detected by its peers' deadline as a `Timeout` well
/// before the hang resolves — the run never deadlocks.
#[test]
fn hung_node_is_detected_by_deadline() {
    let data = dataset();
    let mut plan = FaultPlan::with_seed(8).schedule(1, 2, FaultOp::Hang);
    plan.hang = Duration::from_millis(400);
    let spec = plan.render();
    let db = db(&data);
    let cluster = ClusterConfig::new(NODES, BIG_MEMORY)
        .with_faults(plan)
        .with_deadline(Duration::from_millis(100));
    let started = gar_obs::Stopwatch::start();
    let err = mine_parallel_with(
        Algorithm::HHpgmFgd,
        &db,
        &data.0,
        &params(),
        &cluster,
        &MineOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, Error::Timeout { .. }),
        "`{spec}` should surface as Timeout, got: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline detection took {:?} — looks like a deadlock",
        started.elapsed()
    );
}

/// `mine --resume` round trip: a checkpointed run restarts from disk,
/// replays the completed passes without redoing their work, and produces
/// the identical answer.
#[test]
fn resume_from_disk_checkpoint_is_byte_identical() {
    let data = dataset();
    let clean = baseline(Algorithm::HHpgmTgd);
    let dir = std::env::temp_dir().join(format!("gar-chaos-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let opts = MineOptions {
        checkpoint_dir: Some(dir.clone()),
        ..MineOptions::default()
    };
    let first = mine_parallel_with(
        Algorithm::HHpgmTgd,
        &db(&data),
        &data.0,
        &params(),
        &ClusterConfig::new(NODES, BIG_MEMORY),
        &opts,
    )
    .unwrap();
    assert_eq!(rendered(&first.output), clean);

    // Resuming an already-complete run replays every stored pass.
    let opts = MineOptions {
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        ..MineOptions::default()
    };
    let resumed = mine_parallel_with(
        Algorithm::HHpgmTgd,
        &db(&data),
        &data.0,
        &params(),
        &ClusterConfig::new(NODES, BIG_MEMORY),
        &opts,
    )
    .unwrap();
    assert_eq!(
        rendered(&resumed.output),
        clean,
        "resumed output diverged from the fault-free run"
    );
    let restored = resumed.pass_reports.iter().filter(|p| p.restored).count();
    assert!(restored > 0, "resume replayed nothing");
    for p in resumed.pass_reports.iter().filter(|p| p.restored) {
        assert!(
            p.node_deltas.iter().all(|d| d.scan_passes == 0),
            "restored pass {} redid disk work",
            p.k
        );
    }

    // Resuming under a different algorithm must be refused, not mixed.
    let err = mine_parallel_with(
        Algorithm::Hpgm,
        &db(&data),
        &data.0,
        &params(),
        &ClusterConfig::new(NODES, BIG_MEMORY),
        &opts,
    )
    .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)), "got: {err}");

    // A truncated checkpoint falls back to `.prev` (or a cold start) —
    // resume still yields the right answer.
    let ckpt = dir.join("mining.ckpt");
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
    let after_damage = mine_parallel_with(
        Algorithm::HHpgmTgd,
        &db(&data),
        &data.0,
        &params(),
        &ClusterConfig::new(NODES, BIG_MEMORY),
        &opts,
    )
    .unwrap();
    assert_eq!(
        rendered(&after_damage.output),
        clean,
        "resume after checkpoint damage diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}
