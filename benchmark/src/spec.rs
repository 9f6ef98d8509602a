//! The frozen names and sizes of the benchmark: workloads, end-to-end
//! metrics with their bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root repeats the names; a self-test keeps the two in step.
//!
//! Every later performance or simplicity claim about this repository is
//! one (metric, workload) cell of this table, so nothing here changes
//! without re-measuring the baseline.

use gar_datagen::{presets, DatasetSpec};
use gar_mining::Algorithm;

/// Simulated nodes of every parallel workload = cores of the reference
/// container. More nodes than cores would measure the OS scheduler.
pub const NODES: usize = 2;
/// The population a run samples from is this many times the sample.
pub const POPULATION_FACTOR: usize = 2;
/// Seed of every dataset's *structure* (hierarchy, pattern pool and the
/// population drawn from them). `--seed` picks the sample; see
/// `input::Input::generate` for why the two are separate.
pub const STRUCTURE_SEED: u64 = 42;
/// Items per generated basket.
pub const BASKET_LEN: usize = 4;
/// Recommendations asked per basket.
pub const TOP_K: u32 = 10;
/// Every this-many-th serve frame is checked against `Catalog::query`.
pub const VERIFY_EVERY: usize = 64;
/// Client read/write deadline in the end-to-end serve phase.
pub const CLIENT_DEADLINE_MS: u64 = 2_000;
/// Client deadline in the fan-out probe of the traced run.
pub const FANOUT_DEADLINE_MS: u64 = 250;
/// A fan-out round trip at least this long counts as stalled.
pub const FANOUT_STALL_US: u64 = 50_000;
/// Deadline on every blocking cluster wait (`ClusterConfig::with_deadline`).
pub const CLUSTER_DEADLINE_S: u64 = 60;
/// The watchdog ends a workload process that is still alive after this.
pub const WATCHDOG_S: u64 = 170;
/// A serve window that has not sent its frames after this long ends
/// anyway (on the reference container a window takes about a second).
pub const SERVE_WINDOW_CAP_S: u64 = 10;
/// At least this many measured rounds, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;

/// Which Table-5 preset a workload's population is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    R30F5,
    R30F3,
}

impl Preset {
    pub fn spec(self, seed: u64) -> DatasetSpec {
        match self {
            Preset::R30F5 => presets::r30f5(seed),
            Preset::R30F3 => presets::r30f3(seed),
        }
    }
}

/// The mining call a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miner {
    /// `gar_mining::sequential::cumulate`, one thread.
    Cumulate,
    /// `gar_mining::parallel::mine_parallel` on [`NODES`] nodes.
    Parallel(Algorithm),
    /// `gar_fpg::mine_parallel` on [`NODES`] nodes.
    FpGrowth,
}

impl Miner {
    /// Threads the mining call runs on.
    pub fn threads(self) -> usize {
        match self {
            Miner::Cumulate => 1,
            Miner::Parallel(_) | Miner::FpGrowth => NODES,
        }
    }
}

/// The frames one serve window sends: closed loop, one in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Baskets per frame: 1 sends `QueryV2`, more send one `QueryBatch`.
    /// A batch averages the per-basket cost inside a frame, which keeps
    /// the tail of a scoring-bound round trip from being the heaviest 1 %
    /// of baskets alone.
    pub batch: usize,
    /// Draw each basket from one root's subtree (it touches one shard)
    /// instead of from the whole antecedent universe.
    pub same_root: bool,
    /// A `Reload` of the same store on the same connection after every
    /// this-many frames: writes beside reads.
    pub reload_every: Option<usize>,
    /// Measured frames of one window, sized so that a window takes about a
    /// second. Every window of a run sends the same frames in the same
    /// order, so windows differ by what the host did and by nothing else.
    pub window_frames: usize,
}

impl Traffic {
    /// Unmeasured frames before the measured ones: connection, page cache,
    /// allocator and branch predictors settle after the mining call that
    /// ran just before.
    pub const fn warmup_frames(&self) -> usize {
        self.window_frames / 5
    }
}

/// Scoring-bound traffic for the stores mined from `D1`.
const SCORED: Traffic = Traffic {
    batch: 4,
    same_root: true,
    reload_every: None,
    window_frames: 600,
};

/// One workload: a population, a mining call, and a traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer does the work here, and nowhere else.
    pub why: &'static str,
    pub preset: Preset,
    /// `DatasetSpec::scaled` factor of the *sample*.
    pub scale: f64,
    pub min_support: f64,
    pub max_pass: Option<usize>,
    pub min_confidence: f64,
    pub miner: Miner,
    /// Per-node candidate memory = this × ‖C2‖ bytes ÷ [`NODES`].
    pub memory_factor: f64,
    pub traffic: Traffic,
}

const D1_SCALE: f64 = 0.01;
const D1_MINSUP: f64 = 0.02;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cumulate-seq",
        why: "single-threaded comparator: taxonomy extend and counter probes do all the work, cluster none; scoring-bound serve",
        preset: Preset::R30F5,
        scale: D1_SCALE,
        min_support: D1_MINSUP,
        max_pass: Some(3),
        min_confidence: 0.5,
        miner: Miner::Cumulate,
        memory_factor: 1.5,
        traffic: SCORED,
    },
    Workload {
        name: "hpgm-exchange",
        why: "deepest hierarchy, every k-subset shipped: links and wire batching dominate mining; 1k-rule store, unbatched queries beside reloads: protocol and reactor are the round trip",
        preset: Preset::R30F3,
        scale: 0.01,
        min_support: 0.01,
        max_pass: Some(2),
        min_confidence: 0.99,
        miner: Miner::Parallel(Algorithm::Hpgm),
        memory_factor: 1.5,
        traffic: Traffic {
            batch: 1,
            same_root: false,
            reload_every: Some(2_000),
            window_frames: 10_000,
        },
    },
    Workload {
        name: "fgd-skew",
        why: "the paper's flagship: reduce, root-hash placement, fine-grain duplication, light exchange; scoring-bound serve",
        preset: Preset::R30F5,
        scale: D1_SCALE,
        min_support: D1_MINSUP,
        max_pass: Some(3),
        min_confidence: 0.5,
        miner: Miner::Parallel(Algorithm::HHpgmFgd),
        memory_factor: 1.5,
        traffic: SCORED,
    },
    Workload {
        name: "fpg-deep",
        why: "pattern growth over all passes bypasses candidates and counters; the deep lattice makes publish heavy; unbatched multi-root serve",
        preset: Preset::R30F5,
        scale: 0.005,
        min_support: 0.08,
        max_pass: None,
        min_confidence: 0.88,
        miner: Miner::FpGrowth,
        memory_factor: 1.5,
        traffic: Traffic {
            batch: 1,
            same_root: false,
            reload_every: None,
            window_frames: 700,
        },
    },
];

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// `fail_frac` (failed ÷ attempted) is the ninth end-to-end figure. It is
/// 0 on correct code, and the driver's contract wants metrics that are
/// never 0, so it travels as the `failed` and `attempted` fields of the
/// result line instead of a row here; any increase fails the run.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mine_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mine_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "publish_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_qps",
        unit: "baskets/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics of the traced run: `(name, unit, better)`. Names are
/// `<layer>.<what>`; the layers are this repository's modules.
pub const PER_LAYER: [(&str, &str, Better); 78] = {
    use Better::{Higher as H, Lower as L};
    [
        ("datagen.generate_s", "s", L),
        ("storage.flat.build_s", "s", L),
        ("storage.flat.scan_mtxn_per_s", "Mtxn/s", H),
        ("storage.scan_bytes", "bytes", L),
        ("storage.flat.gfp1_write_s", "s", L),
        ("storage.flat.gfp1_open_s", "s", L),
        ("storage.flat.gfp1_mb", "MB", L),
        ("taxonomy.extend_s", "s", L),
        ("taxonomy.extend_items_per_txn", "count", L),
        ("taxonomy.reduce_s", "s", L),
        ("mining.candidate.pairs_s", "s", L),
        ("mining.candidate.join_k3_s", "s", L),
        ("mining.candidate.c2", "count", L),
        ("mining.candidate.c3", "count", L),
        ("mining.counter.build_s", "s", L),
        ("mining.counter.count_s", "s", L),
        ("mining.counter.work", "count", L),
        ("mining.counter.hits", "count", H),
        ("mining.counter.hit_ratio", "ratio", H),
        ("mining.counter.arena_bytes", "bytes", L),
        ("mining.wire.encode_mb_per_s", "MB/s", H),
        ("mining.wire.decode_mb_per_s", "MB/s", H),
        ("cluster.link.mb_per_s", "MB/s", H),
        ("cluster.link.msg_per_s", "1/s", H),
        ("cluster.allreduce_us", "us", L),
        ("cluster.barrier_us", "us", L),
        ("cluster.spawn_us", "us", L),
        ("cluster.sim_overhead", "ratio", L),
        ("mining.sequential.reference_s", "s", L),
        ("mining.sequential.reference_cpu_s", "s", L),
        ("mining.parallel.modeled_s", "s", L),
        ("mining.parallel.bytes_exchanged", "bytes", L),
        ("mining.parallel.messages", "count", L),
        ("mining.parallel.probe_skew", "ratio", L),
        ("mining.parallel.duplicated_frac", "ratio", H),
        ("mining.parallel.fragments", "count", L),
        ("mining.parallel.idle_frac", "ratio", L),
        ("mining.parallel.span.scan_s", "s", L),
        ("mining.parallel.span.exchange_s", "s", L),
        ("mining.parallel.span.count_s", "s", L),
        ("mining.parallel.span.gather_s", "s", L),
        ("mining.duplicate.select_s", "s", L),
        ("mining.checkpoint.overhead_ratio", "ratio", L),
        ("mining.checkpoint.bytes", "bytes", L),
        ("fpg.span.projection_s", "s", L),
        ("fpg.tree.nodes", "count", L),
        ("fpg.tree.inserts", "count", L),
        ("fpg.sequential_s", "s", L),
        ("fpg.tree.build_s", "s", L),
        ("mining.rules.derive_s", "s", L),
        ("mining.rules.count", "count", L),
        ("serve.store.build_s", "s", L),
        ("serve.store.save_s", "s", L),
        ("serve.store.load_s", "s", L),
        ("serve.store.bytes", "bytes", L),
        ("serve.index.build_s", "s", L),
        ("serve.engine.catalog_s", "s", L),
        ("serve.engine.query_us_p50", "us", L),
        ("serve.engine.query_us_p99", "us", L),
        ("serve.engine.extend_us", "us", L),
        ("serve.engine.match_us", "us", L),
        ("serve.engine.merge_us", "us", L),
        ("serve.engine.match_ratio", "ratio", H),
        ("serve.index.candidates_per_basket", "count", L),
        ("serve.protocol.encode_ns", "ns", L),
        ("serve.protocol.decode_ns", "ns", L),
        ("serve.wire.overhead_us", "us", L),
        ("serve.server.latency_us_p50", "us", L),
        ("serve.server.shard_us_p50", "us", L),
        ("serve.server.queue_wait_us", "us", L),
        ("serve.routed.single_frac", "ratio", H),
        ("serve.epoch.reload_us", "us", L),
        ("serve.fanout.rtt_p50_us", "us", L),
        ("serve.fanout.stalled_frac", "ratio", L),
        ("serve.process.cpu_us_per_basket", "us", L),
        ("obs.overhead_ratio", "ratio", L),
        ("trace.mine_wall_s", "s", L),
        ("trace.unattributed_s", "s", L),
    ]
};

/// The unit of an end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map_or_else(
            || panic!("{name} is not a metric of this benchmark"),
            |m| m.1,
        )
}

/// Per-layer metrics that are exact counts: the same seed must give the
/// same value on every run, and the comparer demands equality.
pub const EXACT_COUNTS: [&str; 16] = [
    "storage.scan_bytes",
    "taxonomy.extend_items_per_txn",
    "mining.candidate.c2",
    "mining.candidate.c3",
    "mining.counter.work",
    "mining.counter.hits",
    "mining.counter.hit_ratio",
    "mining.counter.arena_bytes",
    "mining.parallel.modeled_s",
    "mining.parallel.bytes_exchanged",
    "mining.parallel.messages",
    "mining.parallel.probe_skew",
    "mining.parallel.duplicated_frac",
    "mining.parallel.fragments",
    "mining.rules.count",
    "serve.store.bytes",
];

#[cfg(test)]
mod tests {
    use super::*;
    use gar_obs::json::{parse, Value};
    use std::collections::BTreeSet;

    fn word(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for exact in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.0 == exact), "{exact}");
        }
    }

    fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} missing"))
    }

    fn field<'a>(row: &'a Value, key: &str) -> &'a str {
        row.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: row without {key}"))
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program emits. They must name the same things in the same order.
    #[test]
    fn agrees_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("reading BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

        let workloads = rows(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(row, "name"), w.name);
            assert_eq!(field(row, "why"), w.why);
        }

        let e2e = rows(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), word(m.better));
            let bound = row.get("bound").and_then(Value::as_f64).expect("bound");
            assert!((bound - m.bound).abs() < 1e-12, "{}", m.name);
            assert!(bound <= 0.25);
        }

        let layers = rows(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(row, "name"), m.0);
            assert_eq!(field(row, "unit"), m.1);
            assert_eq!(field(row, "better"), word(m.2));
        }
    }
}
