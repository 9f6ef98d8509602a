//! `gar-cli` — generate hierarchical retail datasets, mine them with the
//! paper's parallel algorithms, and derive rules, as separate steps with
//! on-disk artifacts between them.
//!
//! ```text
//! gar-cli gen   --preset R30F5 --scale 0.01 --partitions 8 --out data/
//! gar-cli info  --data data/
//! gar-cli mine  --data data/ --algorithm H-HPGM-FGD --min-support 0.005 \
//!               --out large.gout
//! gar-cli rules --output large.gout --taxonomy data/taxonomy.gtax \
//!               --min-confidence 0.6 --top 20
//! ```

mod args;
mod commands;

use args::Args;
use gar_types::{Error, Result};

/// Exit-code mapping: 2 = bad invocation or configuration, 3 = storage
/// (I/O or corrupt artifact), 4 = cluster-runtime failure (a node died,
/// hung past its deadline, or broke protocol, or a server shed the
/// query). Scripts can distinguish
/// "fix your flags" from "rerun with --resume".
fn exit_code(e: &Error) -> i32 {
    match e {
        Error::InvalidConfig(_) | Error::InvalidTaxonomy(_) => 2,
        Error::Io { .. } | Error::Corrupt(_) => 3,
        Error::NodeFailure { .. }
        | Error::Protocol(_)
        | Error::Poisoned { .. }
        | Error::Timeout { .. }
        | Error::Overloaded { .. } => 4,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print_usage();
        return;
    }
    match run(argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(exit_code(&e));
        }
    }
}

fn run(argv: Vec<String>) -> Result<()> {
    let args = Args::parse(argv)?;
    match args.command.as_deref() {
        Some("gen") => commands::gen::run(&args),
        Some("info") => commands::info::run(&args),
        Some("mine") => commands::mine::run(&args),
        Some("rules") => commands::rules::run(&args),
        Some("serve") => commands::serve::run(&args),
        Some("query") => commands::query::run(&args),
        Some(other) => {
            print_usage();
            Err(gar_types::Error::InvalidConfig(format!(
                "unknown subcommand '{other}'"
            )))
        }
        None => {
            print_usage();
            Ok(())
        }
    }
}

fn print_usage() {
    println!(
        "gar-cli — generalized association rule mining (SIGMOD '98 reproduction)

USAGE:
  gar-cli gen   --out DIR [--preset R30F5|R30F3|R30F10] [--scale F]
                [--seed N] [--partitions N]
  gar-cli info  --data DIR
  gar-cli mine  --data DIR --min-support F [--algorithm NAME|--algo NAME]
                [--max-pass K] [--memory-mb M] [--out FILE.gout]
                [--checkpoint-dir DIR] [--resume] [--faults SPEC]
                [--deadline-ms MS] [--max-node-failures N]
                [--metrics-out FILE.json] [--trace-out FILE.json]
  gar-cli rules --output FILE.gout --min-confidence F
                [--taxonomy FILE.gtax] [--interest R] [--top N]
                [--out FILE.grul]
  gar-cli serve --rules FILE.grul [--port N] [--shards N]
                [--deadline-ms MS] [--queue-depth N]
                [--watch-store] [--faults SPEC]
                [--metrics-out FILE.json] [--trace-out FILE.json]
  gar-cli query --addr HOST:PORT
                (--basket \"1,2,3\" | --reload FILE.grul | --shutdown)
                [--top K] [--deadline-ms MS]

ALGORITHMS:
  Apriori (sequential, hierarchy-blind), Cumulate (sequential), NPGM,
  HPGM, H-HPGM, H-HPGM-TGD, H-HPGM-PGD, H-HPGM-FGD (default),
  FP-Growth (pattern growth, projection-sharded)

FAULT TOLERANCE (parallel algorithms):
  --checkpoint-dir DIR   persist L_k after every pass (crash-safe writes)
  --resume               restart from the newest intact checkpoint in DIR
  --faults SPEC          seeded fault injection, e.g.
                         'seed=42,p-drop=0.01,delay-ms=2,panic@n1p2'
  --deadline-ms MS       per-wait deadline; a hung node becomes a Timeout
  --max-node-failures N  re-run over survivors after up to N node deaths

OBSERVABILITY (parallel algorithms and serve):
  --metrics-out FILE     write per-pass counters/histograms as JSON
  --trace-out FILE       write chrome://tracing spans (one lane per node)

SERVING:
  rules --out FILE       persist the derived rules (canonical order,
                         embedded taxonomy) as a servable .grul store
  serve                  answer basket queries over TCP; port 0 picks an
                         ephemeral port (printed on the first line)
  serve --watch-store    hot-swap the rule file into a new epoch when it
                         changes on disk (corrupt swaps are rejected and
                         the old epoch keeps answering)
  serve --faults SPEC    seeded serve-side chaos, e.g.
                         'conn-reset@c0,shard-panic@s1q3,stale-swap@r1'
  query                  send one basket; --reload hot-swaps a new rule
                         file; --shutdown stops the server

EXIT CODES:
  0 success · 2 invalid flags/config · 3 I/O or corrupt artifact ·
  4 cluster failure (node death, timeout, protocol)"
    );
}
