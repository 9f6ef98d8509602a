//! `gar-cli mine` — run a mining algorithm over a dataset directory.

use crate::args::Args;
use crate::commands::open_dataset;
use gar_cluster::{ClusterConfig, FaultPlan};
use gar_mining::parallel::{mine_parallel_with, MineOptions};
use gar_mining::persist::{algorithm_by_name, save_output};
use gar_mining::sequential::{apriori, cumulate};
use gar_mining::{Algorithm, MiningOutput, MiningParams};
use gar_obs::{Obs, Stopwatch};
use gar_storage::{FlatPartition, PartitionedDatabase};
use gar_types::{Error, Result};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// What only the parallel algorithms act on: the sequential ones have no
/// cluster to size, break, checkpoint or observe.
const CLUSTER_OPTIONS: [&str; 8] = [
    "faults",
    "checkpoint-dir",
    "resume",
    "max-node-failures",
    "deadline-ms",
    "memory-mb",
    "metrics-out",
    "trace-out",
];

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<()> {
    let dir = Path::new(args.require("data")?);
    let min_support: f64 = args.require_parsed("min-support")?;
    // `--algo` is the short alias for `--algorithm`.
    let algo_name = args
        .get("algo")
        .or_else(|| args.get("algorithm"))
        .unwrap_or("H-HPGM-FGD");
    let algorithm = algorithm_by_name(algo_name)?;
    if matches!(algorithm, Algorithm::Cumulate | Algorithm::Apriori) {
        let given = |o: &&str| args.get(o).is_some() || args.has_switch(o);
        if let Some(option) = CLUSTER_OPTIONS.into_iter().find(given) {
            return Err(Error::InvalidConfig(format!(
                "--{option} applies to the parallel algorithms only"
            )));
        }
    }
    let memory_mb: u64 = args.get_or("memory-mb", 64)?;

    let mut params = MiningParams::with_min_support(min_support);
    if let Some(k) = args.get("max-pass") {
        params = params.max_pass(
            k.parse()
                .map_err(|_| Error::InvalidConfig(format!("bad --max-pass '{k}'")))?,
        );
    }
    params.validate()?;

    let faults = args.get("faults").map(FaultPlan::parse).transpose()?;
    let deadline = args.get_parsed("deadline-ms")?.map(Duration::from_millis);
    let opts = MineOptions {
        checkpoint_dir: args.get("checkpoint-dir").map(PathBuf::from),
        resume: args.has_switch("resume"),
        max_node_failures: args.get_or("max-node-failures", 0)?,
    };

    // Observability is opt-in: enabling it costs a little bookkeeping per
    // message/pass, so only pay when an output path asks for it.
    let metrics_out = args.get("metrics-out");
    let trace_out = args.get("trace-out");
    let out_path = args.get("out");
    args.finish()?;

    let (parts, tax) = open_dataset(dir)?;
    let started = Stopwatch::start();
    let obs = if metrics_out.is_some() || trace_out.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };

    let output: MiningOutput = match algorithm {
        Algorithm::Cumulate => cumulate(&FlatPartition::concat(&parts), &tax, &params)?,
        Algorithm::Apriori => apriori(&FlatPartition::concat(&parts), tax.num_items(), &params)?,
        parallel_alg => {
            let nodes = parts.len();
            // Reopen through the PartitionedDatabase wrapper for the
            // parallel entry point (one partition = one node).
            let db = PartitionedDatabase::from_parts(parts);
            let mut cluster =
                ClusterConfig::new(nodes, memory_mb * 1024 * 1024).with_obs(obs.clone());
            if let Some(plan) = faults {
                cluster = cluster.with_faults(plan);
            }
            if let Some(deadline) = deadline {
                cluster = cluster.with_deadline(deadline);
            }
            let report = match parallel_alg {
                // The pattern-growth family has its own driver crate.
                Algorithm::FpGrowth => {
                    gar_fpg::mine_parallel_with(&db, &tax, &params, &cluster, &opts)?
                }
                apriori_alg => {
                    mine_parallel_with(apriori_alg, &db, &tax, &params, &cluster, &opts)?
                }
            };
            println!(
                "{} on {} nodes: wall {:?}, modeled SP-2 time {:.2}s",
                algorithm.name(),
                report.num_nodes,
                report.wall,
                report.modeled_seconds
            );
            println!(
                "{:>5} {:>12} {:>10} {:>10} {:>12}",
                "pass", "candidates", "dup", "large", "avg MB recv"
            );
            for p in &report.pass_reports {
                println!(
                    "{:>5} {:>12} {:>10} {:>10} {:>12.3}{}",
                    p.k,
                    p.num_candidates,
                    p.num_duplicated,
                    p.num_large,
                    p.avg_mb_received(),
                    if p.restored { "  (restored)" } else { "" }
                );
            }
            for note in &report.degraded {
                println!("degraded mode: {note}");
            }
            report.output
        }
    };

    println!(
        "{}: {} large itemsets across {} passes in {:?} (min support {:.3}% = {} txns)",
        algorithm.name(),
        output.num_large(),
        output.passes.len(),
        started.elapsed(),
        min_support * 100.0,
        output.min_support_count
    );

    if let Some(path) = metrics_out {
        std::fs::write(path, obs.metrics().to_json()).map_err(|e| Error::Io {
            context: format!("writing metrics to {path}"),
            source: e,
        })?;
        println!("wrote {path}");
    }
    if let Some(path) = trace_out {
        std::fs::write(path, obs.chrome_trace_json()).map_err(|e| Error::Io {
            context: format!("writing trace to {path}"),
            source: e,
        })?;
        println!("wrote {path} (load in chrome://tracing or ui.perfetto.dev)");
    }

    if let Some(out_path) = out_path {
        save_output(&output, out_path)?;
        println!("wrote {out_path}");
    }
    Ok(())
}
