//! Cross-algorithm correctness: every parallel algorithm must produce
//! exactly the sequential Cumulate result — same itemsets, same counts —
//! under every placement, fragmentation, and duplication regime.

use gar_cluster::ClusterConfig;
use gar_datagen::{DatasetSpec, TransactionGenerator};
use gar_mining::parallel::mine_parallel;
use gar_mining::sequential::{apriori, cumulate};
use gar_mining::{Algorithm, MiningParams};
use gar_storage::{FlatPartition, PartitionedDatabase};
use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
use gar_types::ItemId;

const BIG_MEMORY: u64 = 1 << 30;

fn dataset(seed: u64) -> (Taxonomy, Vec<Vec<gar_types::ItemId>>) {
    // Small but structured: enough items that supports differentiate (not
    // every item is large), small enough that debug-mode counting stays
    // fast across all six algorithms.
    let spec = DatasetSpec {
        name: "test".into(),
        num_transactions: 1_200,
        avg_transaction_size: 6.0,
        avg_pattern_size: 3.0,
        num_patterns: 80,
        num_items: 400,
        num_roots: 8,
        fanout: 4.0,
        seed,
    };
    let mut g = TransactionGenerator::new(&spec).unwrap();
    let txns: Vec<_> = g.by_ref().collect();
    (g.into_taxonomy(), txns)
}

fn assert_same_output(a: &gar_mining::MiningOutput, b: &gar_mining::MiningOutput) {
    assert_eq!(a.num_transactions, b.num_transactions);
    assert_eq!(a.min_support_count, b.min_support_count);
    assert_eq!(
        a.passes.len(),
        b.passes.len(),
        "pass count differs: {:?} vs {:?}",
        a.passes
            .iter()
            .map(|p| (p.k, p.itemsets.len()))
            .collect::<Vec<_>>(),
        b.passes
            .iter()
            .map(|p| (p.k, p.itemsets.len()))
            .collect::<Vec<_>>(),
    );
    for (pa, pb) in a.passes.iter().zip(&b.passes) {
        assert_eq!(pa.k, pb.k);
        assert_eq!(
            pa.itemsets,
            pb.itemsets,
            "pass {} differs ({} vs {} itemsets)",
            pa.k,
            pa.itemsets.len(),
            pb.itemsets.len()
        );
    }
}

#[test]
fn all_parallel_algorithms_match_cumulate() {
    let (tax, txns) = dataset(42);
    let params = MiningParams::with_min_support(0.05);

    let seq_db = PartitionedDatabase::build_in_memory(1, txns.clone().into_iter()).unwrap();
    let expected = cumulate(seq_db.partition(0), &tax, &params).unwrap();
    assert!(expected.num_large() > 20, "test dataset too sparse");
    assert!(
        expected.passes.len() >= 2,
        "want multi-pass mining, got {} passes",
        expected.passes.len()
    );

    let db = PartitionedDatabase::build_in_memory(4, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(4, BIG_MEMORY);
    for alg in Algorithm::parallel_all() {
        let report = mine_parallel(alg, &db, &tax, &params, &cluster)
            .unwrap_or_else(|e| panic!("{alg} failed: {e}"));
        assert_same_output(&expected, &report.output);
        assert_eq!(report.num_nodes, 4);
        assert_eq!(report.pass_reports.len(), report.output.passes.len().max(1));
    }
}

#[test]
fn single_node_cluster_matches_sequential() {
    let (tax, txns) = dataset(7);
    let params = MiningParams::with_min_support(0.03);
    let db = PartitionedDatabase::build_in_memory(1, txns.clone().into_iter()).unwrap();
    let expected = cumulate(db.partition(0), &tax, &params).unwrap();
    let cluster = ClusterConfig::new(1, BIG_MEMORY);
    for alg in Algorithm::parallel_all() {
        let report = mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
        assert_same_output(&expected, &report.output);
        // One node: nothing to ship.
        assert_eq!(
            report.node_totals[0].bytes_sent, 0,
            "{alg} sent bytes to itself"
        );
    }
}

#[test]
fn npgm_fragments_under_memory_pressure_and_still_agrees() {
    let (tax, txns) = dataset(13);
    let params = MiningParams::with_min_support(0.01).max_pass(2);
    let seq_db = PartitionedDatabase::build_in_memory(1, txns.clone().into_iter()).unwrap();
    let expected = cumulate(seq_db.partition(0), &tax, &params).unwrap();

    let db = PartitionedDatabase::build_in_memory(3, txns.into_iter()).unwrap();
    // Tiny memory: candidates cannot fit, NPGM must fragment + re-scan.
    let cluster = ClusterConfig::new(3, 16 * 1024);
    let report = mine_parallel(Algorithm::Npgm, &db, &tax, &params, &cluster).unwrap();
    assert_same_output(&expected, &report.output);

    let pass2 = report.pass(2).expect("pass 2 ran");
    assert!(
        pass2.num_fragments > 1,
        "expected fragmentation, got {}",
        pass2.num_fragments
    );
    // One scan pass per fragment on every node.
    for d in &pass2.node_deltas {
        assert_eq!(d.scan_passes, pass2.num_fragments as u64);
    }

    // With plentiful memory: single fragment, single scan.
    let roomy = ClusterConfig::new(3, BIG_MEMORY);
    let db2 = {
        let (_, txns2) = dataset(13);
        PartitionedDatabase::build_in_memory(3, txns2.into_iter()).unwrap()
    };
    let report2 = mine_parallel(Algorithm::Npgm, &db2, &tax, &params, &roomy).unwrap();
    assert_eq!(report2.pass(2).unwrap().num_fragments, 1);
    assert!(report2.modeled_seconds < report.modeled_seconds);
}

#[test]
fn hhpgm_ships_far_less_than_hpgm() {
    let (tax, txns) = dataset(21);
    let params = MiningParams::with_min_support(0.01).max_pass(2);
    let db = PartitionedDatabase::build_in_memory(4, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(4, BIG_MEMORY);

    let hpgm = mine_parallel(Algorithm::Hpgm, &db, &tax, &params, &cluster).unwrap();
    let hhpgm = mine_parallel(Algorithm::HHpgm, &db, &tax, &params, &cluster).unwrap();
    assert_same_output(&hpgm.output, &hhpgm.output);

    let hpgm_recv = hpgm.pass(2).unwrap().avg_mb_received();
    let hhpgm_recv = hhpgm.pass(2).unwrap().avg_mb_received();
    assert!(
        hpgm_recv > 3.0 * hhpgm_recv,
        "HPGM {hpgm_recv:.3} MB vs H-HPGM {hhpgm_recv:.3} MB — hierarchy partitioning should slash communication"
    );
}

#[test]
fn duplication_kicks_in_and_preserves_results() {
    let (tax, txns) = dataset(33);
    let params = MiningParams::with_min_support(0.01).max_pass(2);
    let db = PartitionedDatabase::build_in_memory(4, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(4, BIG_MEMORY);

    let plain = mine_parallel(Algorithm::HHpgm, &db, &tax, &params, &cluster).unwrap();
    for alg in [
        Algorithm::HHpgmTgd,
        Algorithm::HHpgmPgd,
        Algorithm::HHpgmFgd,
    ] {
        let dup = mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
        assert_same_output(&plain.output, &dup.output);
        let pass2 = dup.pass(2).unwrap();
        assert!(
            pass2.num_duplicated > 0,
            "{alg}: free memory available but nothing duplicated"
        );
        assert!(pass2.num_duplicated <= pass2.num_candidates);
    }
}

#[test]
fn tiny_memory_disables_duplication_making_tgd_equal_hhpgm() {
    // The paper: "When the size of free memory is small, H-HPGM-TGD cannot
    // duplicate the candidate itemsets ... it becomes identical to H-HPGM."
    let (tax, txns) = dataset(5);
    let params = MiningParams::with_min_support(0.01).max_pass(2);
    let db = PartitionedDatabase::build_in_memory(4, txns.into_iter()).unwrap();
    // Budget barely above the biggest partition: no free space.
    let cluster = ClusterConfig::new(4, 1);
    let err = mine_parallel(Algorithm::HHpgmTgd, &db, &tax, &params, &cluster);
    // memory_per_node = 1 byte is still a valid config (candidates are
    // partitioned regardless); duplication must simply not happen.
    let report = err.unwrap();
    assert_eq!(report.pass(2).unwrap().num_duplicated, 0);
}

#[test]
fn disk_backed_partitions_agree_with_memory() {
    let (tax, txns) = dataset(55);
    let params = MiningParams::with_min_support(0.02).max_pass(2);
    let dir = std::env::temp_dir().join(format!("gar-par-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mem = PartitionedDatabase::build_in_memory(3, txns.into_iter()).unwrap();
    // The same partitions, written to disk and re-opened.
    let disk = PartitionedDatabase::from_parts(
        (0..3)
            .map(|n| {
                let path = dir.join(format!("part-{n:04}.gfp"));
                mem.partition(n).write_to(&path).unwrap();
                FlatPartition::open(&path).unwrap()
            })
            .collect(),
    );
    let cluster = ClusterConfig::new(3, BIG_MEMORY);
    let a = mine_parallel(Algorithm::HHpgmFgd, &disk, &tax, &params, &cluster).unwrap();
    let b = mine_parallel(Algorithm::HHpgmFgd, &mem, &tax, &params, &cluster).unwrap();
    assert_same_output(&a.output, &b.output);
    // Both runs report real I/O, and the same I/O, node for node.
    assert!(a.node_totals.iter().all(|s| s.io_bytes > 0));
    let io = |r: &gar_mining::ParallelReport| -> Vec<u64> {
        r.node_totals.iter().map(|s| s.io_bytes).collect()
    };
    assert_eq!(io(&a), io(&b));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn node_partition_mismatch_is_rejected() {
    let (tax, txns) = dataset(1);
    let db = PartitionedDatabase::build_in_memory(2, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(4, BIG_MEMORY);
    let err = mine_parallel(
        Algorithm::HHpgm,
        &db,
        &tax,
        &MiningParams::with_min_support(0.1),
        &cluster,
    )
    .unwrap_err();
    assert!(err.to_string().contains("partitions"));
}

#[test]
fn sequential_algorithms_rejected_by_parallel_entry() {
    let (tax, txns) = dataset(2);
    let db = PartitionedDatabase::build_in_memory(2, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(2, BIG_MEMORY);
    for alg in [Algorithm::Cumulate, Algorithm::Apriori] {
        assert!(mine_parallel(
            alg,
            &db,
            &tax,
            &MiningParams::with_min_support(0.1),
            &cluster
        )
        .is_err());
    }
}

/// `copies` back-to-back copies of 400 pseudo-random transactions over
/// 40 items with no hierarchy, and the edge-less taxonomy over them. The
/// flat baselines CD [AS96] and HPA [SK96] are NPGM and HPGM run over it.
fn flat_dataset(seed: u64, copies: usize) -> (Taxonomy, Vec<Vec<ItemId>>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let txns: Vec<Vec<ItemId>> = (0..400)
        .map(|_| {
            let len = 2 + (next() % 6) as usize;
            let mut t: Vec<ItemId> = (0..len).map(|_| ItemId((next() % 40) as u32)).collect();
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect();
    let txns = std::iter::repeat_n(txns, copies).flatten().collect();
    (TaxonomyBuilder::new(40).build().unwrap(), txns)
}

#[test]
fn cd_and_hpa_match_apriori_on_flat_data() {
    let (tax, txns) = flat_dataset(3, 1);
    let params = MiningParams::with_min_support(0.015);
    let seq_db = PartitionedDatabase::build_in_memory(1, txns.clone().into_iter()).unwrap();
    let expected = apriori(seq_db.partition(0), 40, &params).unwrap();
    assert!(expected.num_large() > 10, "dataset too sparse");
    assert!(expected.passes.len() >= 2, "want multi-pass mining");

    for nodes in [1, 4] {
        let db = PartitionedDatabase::build_in_memory(nodes, txns.clone().into_iter()).unwrap();
        let cluster = ClusterConfig::new(nodes, 1 << 24);
        for alg in [Algorithm::Npgm, Algorithm::Hpgm] {
            let report = mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
            assert_same_output(&expected, &report.output);
        }
    }
}

#[test]
fn single_node_cd_and_hpa_send_nothing() {
    let (tax, txns) = flat_dataset(1, 1);
    let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
    let params = MiningParams::with_min_support(0.05);
    let cluster = ClusterConfig::new(1, 1 << 24);
    for alg in [Algorithm::Npgm, Algorithm::Hpgm] {
        let report = mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
        assert!(report.output.num_large() > 0, "{alg} found nothing");
        assert_eq!(report.node_totals[0].bytes_sent, 0, "{alg} sent bytes");
    }
}

#[test]
fn cd_fragments_under_memory_pressure_on_flat_data() {
    let (tax, txns) = flat_dataset(7, 1);
    let db = PartitionedDatabase::build_in_memory(2, txns.into_iter()).unwrap();
    let params = MiningParams::with_min_support(0.02).max_pass(2);
    let tight = ClusterConfig::new(2, 1024);
    let report = mine_parallel(Algorithm::Npgm, &db, &tax, &params, &tight).unwrap();
    let pass2 = report.pass(2).expect("pass 2 ran");
    assert!(
        pass2.num_fragments > 1,
        "expected fragmentation, got {}",
        pass2.num_fragments
    );
}

#[test]
fn hpa_traffic_scales_with_data_cd_with_candidates() {
    // The structural difference: CD's only traffic is the count
    // all-reduce (independent of |D|); HPA ships generated itemsets
    // (linear in |D|). Doubling the data must roughly double HPA's
    // bytes and leave CD's unchanged.
    let params = MiningParams::with_min_support(0.02).max_pass(2);
    let cluster = ClusterConfig::new(3, 1 << 24);
    let pass2_bytes = |alg: Algorithm, copies: usize| -> u64 {
        let (tax, txns) = flat_dataset(11, copies);
        let db = PartitionedDatabase::build_in_memory(3, txns.into_iter()).unwrap();
        let report = mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
        let pass2 = report.pass(2).expect("pass 2 ran");
        pass2.node_deltas.iter().map(|d| d.bytes_sent).sum()
    };
    let (cd_1, cd_2) = (
        pass2_bytes(Algorithm::Npgm, 1),
        pass2_bytes(Algorithm::Npgm, 2),
    );
    assert_eq!(cd_1, cd_2, "CD traffic must not scale with data");
    let (hpa_1, hpa_2) = (
        pass2_bytes(Algorithm::Hpgm, 1),
        pass2_bytes(Algorithm::Hpgm, 2),
    );
    assert!(
        hpa_2 as f64 > 1.5 * hpa_1 as f64,
        "HPA traffic should scale with data: {hpa_1} -> {hpa_2}"
    );
}
