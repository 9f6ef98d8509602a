//! The figures: one function per CSV under `results/`, named by its
//! stem. Each runs at `env`'s scale and seed and returns the rows the
//! CSV holds; EXPERIMENTS.md reads them against the paper.

use crate::{run, Env, Table, Workload, MINSUP_SWEEP_PCT};
use gar_cluster::stats::skew_summary;
use gar_datagen::presets;
use gar_mining::sequential::cumulate_metered;
use gar_mining::{Algorithm, MiningParams, ParallelReport, PassReport};
use gar_taxonomy::TaxonomyBuilder;
use gar_types::{Error, ItemId, Result};

/// A figure: the table it computes from the environment.
pub type Figure = fn(&Env) -> Result<Table>;

/// Every figure by name, in the order `gar-bench all` runs them.
pub const FIGURES: [(&str, Figure); 8] = [
    ("table5_datasets", table5_datasets),
    ("table6_messages", table6_messages),
    ("fig13_hpgm_vs_hhpgm", fig13_hpgm_vs_hhpgm),
    ("fig14_all_algorithms", fig14_all_algorithms),
    ("fig15_workload_distribution", fig15_workload_distribution),
    ("fig16_speedup", fig16_speedup),
    ("ablation_duplication_budget", ablation_duplication_budget),
    ("ablation_hierarchy", ablation_hierarchy),
];

/// The hierarchy-aware family Figures 15 and 16 compare.
const HHPGM_FAMILY: [Algorithm; 4] = [
    Algorithm::HHpgm,
    Algorithm::HHpgmTgd,
    Algorithm::HHpgmPgd,
    Algorithm::HHpgmFgd,
];

/// The pass-2 report of a run capped at pass 2.
fn pass2(rep: &ParallelReport) -> Result<&PassReport> {
    rep.pass(2)
        .ok_or_else(|| Error::InvalidConfig(format!("{} ran no pass 2", rep.output.algorithm)))
}

/// Table 5: the three datasets' parameters and their emergent hierarchy
/// shape (levels, mean fanout), one column per dataset.
fn table5_datasets(env: &Env) -> Result<Table> {
    let mut table = Table::new(["parameter", "R30F5", "R30F3", "R30F10"]);
    table.rows = [
        "transactions (scaled)",
        "avg transaction size",
        "avg maximal potentially large itemset",
        "maximal potentially large itemsets",
        "items (scaled)",
        "roots",
        "levels (emergent)",
        "mean fanout (emergent)",
    ]
    .map(|name| vec![name.to_string()])
    .to_vec();
    for spec in presets::all(env.seed) {
        let w = Workload::generate(&spec, env)?;
        let tax = &w.taxonomy;
        let interior = (0..tax.num_items())
            .filter(|&i| !tax.is_leaf(ItemId(i)))
            .count();
        let mean_fanout = if interior > 0 {
            (tax.num_items() as usize - tax.roots().len()) as f64 / interior as f64
        } else {
            0.0
        };
        let mean_txn = w.transactions.iter().map(Vec::len).sum::<usize>() as f64
            / w.transactions.len().max(1) as f64;
        let column = [
            w.transactions.len().to_string(),
            format!("{mean_txn:.1}"),
            format!("{:.0}", w.spec.avg_pattern_size),
            w.spec.num_patterns.to_string(),
            w.spec.num_items.to_string(),
            tax.roots().len().to_string(),
            (tax.max_depth() + 1).to_string(),
            format!("{mean_fanout:.1}"),
        ];
        for (row, cell) in table.rows.iter_mut().zip(column) {
            row.push(cell);
        }
    }
    Ok(table)
}

/// Table 6: average MB received per node at pass 2, HPGM against H-HPGM
/// (R30F5, 0.3 %, 8/12/16 nodes). The paper's ratio is about 29x.
fn table6_messages(env: &Env) -> Result<Table> {
    const MINSUP: f64 = 0.003;
    let workload = Workload::generate(&presets::r30f5(env.seed), env)?;
    let memory = workload.memory_per_node(MINSUP, 16);
    let mut table = Table::new(["# of nodes", "HPGM (MB)", "H-HPGM (MB)", "ratio"]);
    for nodes in [8usize, 12, 16] {
        let db = workload.partition(nodes)?;
        let mb = |alg| -> Result<f64> {
            let rep = run(alg, &workload, &db, MINSUP, nodes, memory, Some(2))?;
            Ok(rep.pass(2).map_or(0.0, |p| p.avg_mb_received()))
        };
        let (a, b) = (mb(Algorithm::Hpgm)?, mb(Algorithm::HHpgm)?);
        table.rows.push(vec![
            nodes.to_string(),
            format!("{a:.2}"),
            format!("{b:.2}"),
            format!("{:.1}x", a / b.max(1e-9)),
        ]);
    }
    Ok(table)
}

/// The sweep Figures 13 and 14 share: pass 2 on 16 nodes, every dataset
/// at every support of [`MINSUP_SWEEP_PCT`], per-node memory sized by
/// the smallest. Yields `(dataset, minsup %, modeled seconds per alg)`.
fn pass2_sweep(env: &Env, algs: &[Algorithm]) -> Result<Vec<(String, f64, Vec<f64>)>> {
    const NODES: usize = 16;
    let smallest = MINSUP_SWEEP_PCT[MINSUP_SWEEP_PCT.len() - 1] / 100.0;
    let mut points = Vec::new();
    for spec in presets::all(env.seed) {
        let workload = Workload::generate(&spec, env)?;
        let memory = workload.memory_per_node(smallest, NODES);
        let db = workload.partition(NODES)?;
        for pct in MINSUP_SWEEP_PCT {
            let secs = algs
                .iter()
                .map(|&alg| {
                    let rep = run(alg, &workload, &db, pct / 100.0, NODES, memory, Some(2))?;
                    Ok(rep.pass(2).map_or(0.0, |p| p.modeled_seconds))
                })
                .collect::<Result<Vec<f64>>>()?;
            points.push((spec.name.clone(), pct, secs));
        }
    }
    Ok(points)
}

/// Figure 13: pass-2 modeled seconds, HPGM against H-HPGM.
fn fig13_hpgm_vs_hhpgm(env: &Env) -> Result<Table> {
    let mut table = Table::new(["dataset", "minsup_pct", "hpgm_s", "hhpgm_s"]);
    for (dataset, pct, secs) in pass2_sweep(env, &[Algorithm::Hpgm, Algorithm::HHpgm])? {
        let mut row = vec![dataset, format!("{pct:.1}")];
        row.extend(secs.iter().map(|s| format!("{s:.6}")));
        table.rows.push(row);
    }
    Ok(table)
}

/// Figure 14: pass-2 modeled seconds of NPGM and the H-HPGM family
/// (HPGM is omitted, as in the paper).
fn fig14_all_algorithms(env: &Env) -> Result<Table> {
    let algs: Vec<_> = std::iter::once(Algorithm::Npgm)
        .chain(HHPGM_FAMILY)
        .collect();
    let mut table = Table::new(["dataset", "minsup_pct", "algorithm", "pass2_seconds"]);
    for (dataset, pct, secs) in pass2_sweep(env, &algs)? {
        for (alg, s) in algs.iter().zip(secs) {
            table.rows.push(vec![
                dataset.clone(),
                format!("{pct:.1}"),
                alg.name().to_string(),
                format!("{s:.6}"),
            ]);
        }
    }
    Ok(table)
}

/// Figure 15: the hash-table probes each node makes to increment sup_cou
/// at pass 2 (R30F5, 0.3 %, 16 nodes), then max/avg and cv per column.
fn fig15_workload_distribution(env: &Env) -> Result<Table> {
    const NODES: usize = 16;
    const MINSUP: f64 = 0.003;
    let workload = Workload::generate(&presets::r30f5(env.seed), env)?;
    // Headroom 3.0 leaves free duplication space even at 0.3 %, the
    // paper's 256 MB/node equivalent; with the bare budget every variant
    // degenerates to H-HPGM (see the duplication-budget ablation).
    let memory = workload.memory_with_headroom(MINSUP, NODES, 3.0);
    let db = workload.partition(NODES)?;
    let mut table = Table::new(["node"]);
    let mut series = Vec::new();
    for alg in HHPGM_FAMILY {
        let rep = run(alg, &workload, &db, MINSUP, NODES, memory, Some(2))?;
        series.push(pass2(&rep)?.probes_per_node());
        table.headers.push(alg.name().to_string());
    }
    for node in 0..NODES {
        let mut row = vec![node.to_string()];
        row.extend(series.iter().map(|s| s[node].to_string()));
        table.rows.push(row);
    }
    let skews: Vec<_> = series.iter().map(|s| skew_summary(s)).collect();
    let mut skew_row = vec!["max/avg".to_string()];
    skew_row.extend(skews.iter().map(|s| format!("{:.2}", s.max_over_mean)));
    let mut cv_row = vec!["cv".to_string()];
    cv_row.extend(skews.iter().map(|s| format!("{:.3}", s.cv)));
    table.rows.extend([skew_row, cv_row]);
    Ok(table)
}

/// Figure 16: speedup over the 4-node run at 4/6/8/12/16 nodes (R30F5,
/// 0.5 % and 0.3 %), normalized so 4 nodes read 4.0.
fn fig16_speedup(env: &Env) -> Result<Table> {
    const NODE_COUNTS: [usize; 5] = [4, 6, 8, 12, 16];
    let workload = Workload::generate(&presets::r30f5(env.seed), env)?;
    let mut table = Table::new(["minsup_pct", "nodes", "algorithm", "seconds", "speedup"]);
    for minsup_pct in [0.5f64, 0.3] {
        let minsup = minsup_pct / 100.0;
        // Per-node memory is a property of the machine, fixed across
        // cluster sizes: it holds the candidates on 4 nodes, so free
        // duplication space grows as nodes are added.
        let memory = workload.memory_with_headroom(minsup, NODE_COUNTS[0], 1.5);
        let mut base = Vec::new();
        for nodes in NODE_COUNTS {
            let db = workload.partition(nodes)?;
            for (ai, alg) in HHPGM_FAMILY.into_iter().enumerate() {
                let secs =
                    run(alg, &workload, &db, minsup, nodes, memory, Some(2))?.modeled_seconds;
                if nodes == NODE_COUNTS[0] {
                    base.push(secs);
                }
                let speedup = base[ai] / secs.max(1e-12) * NODE_COUNTS[0] as f64;
                table.rows.push(vec![
                    format!("{minsup_pct}"),
                    nodes.to_string(),
                    alg.name().to_string(),
                    format!("{secs:.6}"),
                    format!("{speedup:.3}"),
                ]);
            }
        }
    }
    Ok(table)
}

/// Ablation: H-HPGM-FGD at pass 2 (R30F5, 0.5 %, 16 nodes) as per-node
/// memory grows from just fitting the partitions to holding everything:
/// candidates duplicated, probe skew and modeled seconds.
fn ablation_duplication_budget(env: &Env) -> Result<Table> {
    const NODES: usize = 16;
    const MINSUP: f64 = 0.005;
    let workload = Workload::generate(&presets::r30f5(env.seed), env)?;
    let db = workload.partition(NODES)?;
    let mut table = Table::new([
        "memory/partition",
        "duplicated",
        "probe max/avg",
        "probe cv",
        "modeled (s)",
    ]);
    for factor in [1.05, 1.25, 1.5, 2.0, 4.0, 16.0] {
        let memory = workload.memory_with_headroom(MINSUP, NODES, factor);
        let rep = run(
            Algorithm::HHpgmFgd,
            &workload,
            &db,
            MINSUP,
            NODES,
            memory,
            Some(2),
        )?;
        let p2 = pass2(&rep)?;
        let skew = skew_summary(&p2.probes_per_node());
        table.rows.push(vec![
            format!("{factor:.2}x"),
            format!("{}/{}", p2.num_duplicated, p2.num_candidates),
            format!("{:.2}", skew.max_over_mean),
            format!("{:.3}", skew.cv),
            format!("{:.3}", p2.modeled_seconds),
        ]);
    }
    Ok(table)
}

/// Ablation: what the hierarchy finds and what it costs. Sequential
/// Cumulate over R30F5's taxonomy against flat Apriori, which is Cumulate
/// over the edge-less taxonomy, up to pass 2: large itemsets found, and
/// the counting work (CPU ticks, hash probes) each did.
fn ablation_hierarchy(env: &Env) -> Result<Table> {
    let workload = Workload::generate(&presets::r30f5(env.seed), env)?;
    let flat = TaxonomyBuilder::new(workload.taxonomy.num_items()).build()?;
    let db = workload.partition(1)?;
    let mut table = Table::new([
        "minsup %",
        "flat large",
        "generalized large",
        "ratio",
        "flat ticks",
        "generalized ticks",
        "flat probes",
        "generalized probes",
    ]);
    for pct in [2.0f64, 1.0, 0.5] {
        let params = MiningParams::with_min_support(pct / 100.0).max_pass(2);
        let (f, fw) = cumulate_metered(db.partition(0), &flat, &params)?;
        let (g, gw) = cumulate_metered(db.partition(0), &workload.taxonomy, &params)?;
        table.rows.push(vec![
            format!("{pct:.1}"),
            f.num_large().to_string(),
            g.num_large().to_string(),
            format!("{:.1}x", g.num_large() as f64 / f.num_large().max(1) as f64),
            fw.cpu_ticks.to_string(),
            gw.cpu_ticks.to_string(),
            fw.hash_probes.to_string(),
            gw.hash_probes.to_string(),
        ]);
    }
    Ok(table)
}
