//! Reproduction harness: the paper's tables and figures, and two
//! ablations, each one function in [`figures::FIGURES`] (see DESIGN.md
//! §4 and EXPERIMENTS.md). The `gar-bench [NAME…|all]` driver prints a
//! figure's [`Table`] aligned and writes it to `results/<NAME>.csv`.
//! This library carries the common machinery: scaled dataset
//! construction, the memory-budget rule, the run wrapper and the table.
//!
//! Environment knobs (all optional; one that is set and unusable is an
//! error, never a silent default):
//!
//! * `GAR_SCALE` — dataset scale factor vs the paper's 3.2 M transactions
//!   (default 0.01);
//! * `GAR_SEED`  — RNG seed (default 42);
//! * `GAR_RESULTS_DIR` — where CSVs land (default `results/`).

pub mod figures;

use gar_cluster::ClusterConfig;
use gar_datagen::{DatasetSpec, TransactionGenerator};
use gar_mining::candidate::generate_pairs;
use gar_mining::counter::candidate_entry_bytes;
use gar_mining::parallel::mine_parallel;
use gar_mining::{Algorithm, MiningParams, ParallelReport};
use gar_storage::PartitionedDatabase;
use gar_taxonomy::Taxonomy;
use gar_types::{ItemId, Result};
use std::ffi::OsString;
use std::path::PathBuf;
use std::str::FromStr;

/// Experiment-wide configuration pulled from the environment.
#[derive(Debug, Clone)]
pub struct Env {
    /// Dataset scale factor (fraction of the paper's full size).
    pub scale: f64,
    /// Seed for taxonomy/pattern/transaction generation.
    pub seed: u64,
    /// Directory CSV outputs are written to.
    pub results_dir: PathBuf,
}

impl Env {
    /// Reads the environment. A variable that is set to something unusable
    /// ends the process with exit code 2 before any work: a silently
    /// substituted default would record one experiment under another's name.
    pub fn load() -> Env {
        Env::from_vars(|name| std::env::var_os(name)).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2)
        })
    }

    fn from_vars(var: impl Fn(&str) -> Option<OsString>) -> std::result::Result<Env, String> {
        let scale: f64 = parsed(&var, "GAR_SCALE", 0.01)?;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(format!("GAR_SCALE={scale} is not a finite scale above 0"));
        }
        Ok(Env {
            scale,
            seed: parsed(&var, "GAR_SEED", 42)?,
            results_dir: var("GAR_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from),
        })
    }
}

/// `default` when the variable is unset; an error naming the variable and
/// its value when it is set and does not parse.
fn parsed<T: FromStr>(
    var: impl Fn(&str) -> Option<OsString>,
    name: &str,
    default: T,
) -> std::result::Result<T, String> {
    let Some(raw) = var(name) else {
        return Ok(default);
    };
    raw.to_str()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{name}={raw:?} does not parse"))
}

/// A generated dataset, partitioned for a given cluster size.
pub struct Workload {
    /// The (scaled) spec it came from.
    pub spec: DatasetSpec,
    /// Its classification hierarchy.
    pub taxonomy: Taxonomy,
    /// The raw transactions (kept so the same data can be re-partitioned
    /// for different node counts, as the speedup experiment requires).
    pub transactions: Vec<Vec<ItemId>>,
}

impl Workload {
    /// Generates the workload for `spec` scaled by `env.scale`.
    pub fn generate(spec: &DatasetSpec, env: &Env) -> Result<Workload> {
        let scaled = spec.scaled(env.scale);
        let mut generator = TransactionGenerator::new(&scaled)?;
        let transactions: Vec<_> = generator.by_ref().collect();
        Ok(Workload {
            spec: scaled,
            taxonomy: generator.into_taxonomy(),
            transactions,
        })
    }

    /// Partitions the transactions over `nodes` simulated disks.
    pub fn partition(&self, nodes: usize) -> Result<PartitionedDatabase> {
        PartitionedDatabase::build_in_memory(nodes, self.transactions.iter().cloned())
    }

    /// Exact pass-2 candidate memory at minimum support `minsup`: one
    /// sequential item-count scan, then `|generate_pairs(L1)|` priced at
    /// the per-entry footprint. Used to place the per-node memory budget
    /// in the paper's regime (`M < |C_2| < N·M`).
    pub fn pass2_candidate_bytes(&self, minsup: f64) -> u64 {
        let n = self.transactions.len() as u64;
        let threshold = MiningParams::with_min_support(minsup).min_support_count(n);
        let mut counts = vec![0u64; self.taxonomy.num_items() as usize];
        for t in &self.transactions {
            for it in self.taxonomy.extend_transaction(t) {
                counts[it.index()] += 1;
            }
        }
        let l1: Vec<ItemId> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= threshold)
            .map(|(i, _)| ItemId(i as u32))
            .collect();
        let c2 = generate_pairs(&l1, Some(&self.taxonomy)).len();
        c2 as u64 * candidate_entry_bytes(2)
    }

    /// The memory-budget rule used across the experiments: per-node memory
    /// is sized so the largest candidate set of the sweep exceeds one
    /// node's memory but fits in the aggregate — exactly the regime the
    /// paper assumes ("the size of the candidate itemsets is larger than
    /// the size of local memory of a single node but smaller than the sum
    /// of the memory space of all the nodes").
    pub fn memory_per_node(&self, smallest_minsup: f64, nodes: usize) -> u64 {
        self.memory_with_headroom(smallest_minsup, nodes, 1.5)
    }

    /// [`Workload::memory_per_node`] with an explicit headroom factor.
    /// Candidate *ownership* across nodes is itself skewed (hot root
    /// combinations carry more candidates), so a factor below ~2 leaves
    /// the hottest node with no free duplication space at all — the
    /// regime where TGD/PGD/FGD degenerate to H-HPGM.
    pub fn memory_with_headroom(&self, minsup: f64, nodes: usize, factor: f64) -> u64 {
        let total = self.pass2_candidate_bytes(minsup);
        ((total as f64 * factor) / nodes as f64).ceil() as u64 + 1
    }
}

/// Runs one algorithm over the workload.
pub fn run(
    alg: Algorithm,
    workload: &Workload,
    db: &PartitionedDatabase,
    minsup: f64,
    nodes: usize,
    memory_per_node: u64,
    max_pass: Option<usize>,
) -> Result<ParallelReport> {
    let mut params = MiningParams::with_min_support(minsup);
    params.max_pass = max_pass;
    let cluster = ClusterConfig::new(nodes, memory_per_node);
    mine_parallel(alg, db, &workload.taxonomy, &params, &cluster)
}

/// One figure's output. The driver prints it aligned and writes the same
/// rows as CSV, so a figure builds its rows once.
pub struct Table {
    /// Column names: the CSV's header line.
    pub headers: Vec<String>,
    /// The rows, one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with these columns.
    pub fn new<const N: usize>(headers: [&str; N]) -> Table {
        Table {
            headers: headers.map(String::from).to_vec(),
            rows: Vec::new(),
        }
    }

    /// The header, a rule and the rows, each column right-aligned.
    pub fn aligned(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let mut out = String::new();
        for cells in [&self.headers, &rule].into_iter().chain(&self.rows) {
            let parts: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out += &format!("  {}\n", parts.join("  "));
        }
        out
    }

    /// The header line, then one line per row; a cell holding a comma or
    /// a quote is quoted.
    pub fn csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            out += &cells.iter().map(esc).collect::<Vec<_>>().join(",");
            out.push('\n');
        }
        out
    }
}

/// Writes `table` to `<results dir>/<name>.csv` and returns that path.
pub fn write_csv(env: &Env, name: &str, table: &Table) -> Result<PathBuf> {
    std::fs::create_dir_all(&env.results_dir)
        .map_err(|e| gar_types::Error::io("creating results dir", e))?;
    let path = env.results_dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.csv())
        .map_err(|e| gar_types::Error::io(format!("writing {}", path.display()), e))?;
    Ok(path)
}

/// The minimum-support sweep the execution-time figures use, in percent
/// (the paper sweeps roughly 0.3%-2%).
pub const MINSUP_SWEEP_PCT: [f64; 5] = [2.0, 1.5, 1.0, 0.5, 0.3];

#[cfg(test)]
mod tests {
    use super::*;
    use gar_datagen::presets;

    #[test]
    fn workload_generation_and_memory_rule() {
        let env = Env {
            scale: 0.003,
            seed: 1,
            results_dir: PathBuf::from("/tmp/gar-bench-test-results"),
        };
        let w = Workload::generate(&presets::r30f5(env.seed), &env).unwrap();
        assert!(!w.transactions.is_empty());
        let bytes = w.pass2_candidate_bytes(0.01);
        assert!(bytes > 0);
        let m = w.memory_per_node(0.01, 4);
        // One node cannot hold everything; four can.
        assert!(m < bytes);
        assert!(4 * m > bytes);
    }

    #[test]
    fn csv_writing_round_trips() {
        let env = Env {
            scale: 1.0,
            seed: 0,
            results_dir: std::env::temp_dir().join(format!("gar-csv-{}", std::process::id())),
        };
        let mut table = Table::new(["a", "b"]);
        table.rows.push(vec!["1".into(), "x,y".into()]);
        let path = write_csv(&env, "t", &table).unwrap();
        assert_eq!(path, env.results_dir.join("t.csv"));
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,\"x,y\"\n");
        std::fs::remove_dir_all(&env.results_dir).ok();
    }

    #[test]
    fn env_defaults() {
        let e = Env::load();
        assert!(e.scale > 0.0);
        assert_eq!(e.results_dir, PathBuf::from("results"));
    }

    #[test]
    fn env_rejects_what_it_cannot_use_and_names_it() {
        let load = |scale: Option<&str>, seed: Option<&str>| {
            Env::from_vars(|name| match name {
                "GAR_SCALE" => scale.map(OsString::from),
                "GAR_SEED" => seed.map(OsString::from),
                _ => None,
            })
        };
        let e = load(Some("0.1"), Some("7")).unwrap();
        assert_eq!((e.scale, e.seed), (0.1, 7));
        let e = load(None, None).unwrap();
        assert_eq!((e.scale, e.seed), (0.01, 42));
        assert_eq!(e.results_dir, PathBuf::from("results"));

        let err = load(Some("0,1"), None).unwrap_err();
        assert!(err.contains("GAR_SCALE") && err.contains("0,1"), "{err}");
        let err = load(None, Some("4 2")).unwrap_err();
        assert!(err.contains("GAR_SEED") && err.contains("4 2"), "{err}");
        for bad in ["0", "-0.1", "inf", "NaN", ""] {
            let err = load(Some(bad), None).unwrap_err();
            assert!(err.contains("GAR_SCALE"), "{bad:?} gave {err}");
        }
    }
}
