//! The traced run: one workload once more with tracing on, then every
//! layer's public functions timed from outside on the same input.
//!
//! Each call into a layer sits inside a span of the benchmark's own
//! ([`Tracer`]); the program's existing spans and counters are read
//! through the same `Obs` handle. The numbers locate an end-to-end delta,
//! they never gate one: see `README.md` for which cell each should move.

use crate::input::{memory_per_node, prepare, Baskets, PassOne, Prepared};
use crate::pipeline::{
    cluster_of, file_digest, mine, out_dir, output_digest, params_of, publish, reference, repeat,
    serve_phase, Mined, Scratch, ServePlan, Served, Verdict,
};
use crate::report::{Outcome, Row};
use crate::spec::{
    Miner, Traffic, Workload, CLIENT_DEADLINE_MS, FANOUT_DEADLINE_MS, FANOUT_STALL_US, NODES,
    PER_LAYER, TOP_K,
};
use crate::stats::{histogram_median, median, percentile};
use crate::sys::process_cpu_seconds;
use crate::trace::{self_seconds_by_name, slowest_node_seconds, span_rows, Tracer, HARNESS_LANE};
use gar_cluster::{Cluster, CostModel, NodeStatsSnapshot};
use gar_fpg::{FpTree, ItemOrder};
use gar_mining::candidate::{generate_candidates, generate_pairs};
use gar_mining::counter::{build_counter, candidate_entry_bytes, CountOutcome};
use gar_mining::parallel::{select_duplicates, DuplicateGrain, MineOptions};
use gar_mining::sequential::cumulate_metered;
use gar_mining::wire::{
    encode_items, for_each_item_list, for_each_itemset, ItemListBatch, ItemsetBatch,
};
use gar_mining::{MiningOutput, ParallelReport};
use gar_obs::{MetricsSnapshot, Obs, Stopwatch};
use gar_serve::index::RuleIndex;
use gar_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, BatchAnswer, Request,
    Response, PROTOCOL_VERSION,
};
use gar_serve::{Catalog, RuleStore};
use gar_storage::FlatPartition;
use gar_types::{Error, ItemId, Itemset, Result};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// The program's phase spans whose self time counts as attributed.
const PHASE_SPANS: [&str; 6] = [
    "scan",
    "exchange",
    "count",
    "gather",
    "projection",
    "checkpoint",
];
/// Untraced mining repetitions (after one warm-up) the traced one is
/// held against.
const UNTRACED_REPS: usize = 3;
/// Flush threshold of the wire batches, as the senders use it.
const BATCH_BYTES: usize = 16 * 1024;
/// Messages of [`BATCH_BYTES`] pushed through one link by the link kernel.
const LINK_MESSAGES: usize = 2_000;
const ALLREDUCE_ROUNDS: usize = 20;
const BARRIER_ROUNDS: usize = 1_000;
const SPAWN_ROUNDS: usize = 20;
/// Baskets the in-process engine kernels answer.
const ENGINE_BASKETS: usize = 1_500;
/// Frames the protocol kernels encode and decode.
const PROTOCOL_FRAMES: usize = 2_000;
/// Round trips the fan-out probe stops after.
const FANOUT_FRAMES: usize = 3_000;
/// Reloads sent after the traced serve loop, so every workload has a
/// reload latency and not only the one whose traffic holds reloads.
const PROBE_RELOADS: usize = 3;

/// The per-layer numbers of one traced run, by metric name.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }
}

/// The traced run of one workload.
pub fn run(index: usize, w: &Workload, seed: u64, seconds: f64) -> Result<Outcome> {
    let t = Tracer::enabled(index);
    let scratch = Scratch::create()?;
    let mut m = Layers(BTreeMap::new());
    let mut verdict = Verdict::default();
    let run_span = t.span("run");

    // Set-up, once, inside spans.
    let p = prepare(w, seed, &t)?;
    m.set("datagen.generate_s", p.input.generate_s);
    m.set("storage.flat.build_s", p.build_s);
    let params = params_of(w);
    let one = p.input.pass_one(&params);

    // Mine: a few untraced repetitions for the base line, then the
    // traced one.
    let untraced = repeat(UNTRACED_REPS, || mine(w, &p, Obs::disabled()))?;
    let (wall, cpu) = (median(&untraced.wall), median(&untraced.cpu));
    let read_before = p.db.total_bytes_read();
    let (mined, traced_wall) = t.timed("mine", || traced_mine(w, &p, t.obs()));
    let (mined, meters_modeled) = mined?;
    m.set(
        "storage.scan_bytes",
        (p.db.total_bytes_read() - read_before) as f64,
    );
    m.set("trace.mine_wall_s", traced_wall);
    m.set("obs.overhead_ratio", traced_wall / wall);
    m.set(
        "mining.parallel.idle_frac",
        (1.0 - cpu / (w.miner.threads() as f64 * wall)).max(0.0),
    );
    report_metrics(&mut m, mined.report(), meters_modeled);

    // The reference: verification, and the sequential comparator's cost.
    let ref_cpu = process_cpu_seconds();
    let (expected, ref_s) = t.timed("mining.sequential.reference", || reference(w, &p));
    let expected = expected?;
    let ref_cpu = process_cpu_seconds() - ref_cpu;
    m.set("mining.sequential.reference_s", ref_s);
    m.set("mining.sequential.reference_cpu_s", ref_cpu);
    // Simulator tax: CPU of the measured miner over sequential Cumulate's
    // on the same input (1 where Cumulate is the measured miner).
    m.set(
        "cluster.sim_overhead",
        if w.miner == Miner::Cumulate {
            1.0
        } else {
            cpu / ref_cpu.max(1e-9)
        },
    );
    verdict.check(
        output_digest(mined.output()) == output_digest(&expected),
        || "traced mining run: large itemsets differ from the reference's".into(),
    );

    // Publish, traced, stage by stage.
    let store_path = scratch.path("store.grul");
    let published = publish(w, mined.output(), &p, &store_path, &t)?;
    for (name, s) in [
        "mining.rules.derive_s",
        "serve.store.build_s",
        "serve.store.save_s",
        "serve.store.load_s",
        "serve.engine.catalog_s",
    ]
    .into_iter()
    .zip(published.stages)
    {
        m.set(name, s);
    }
    m.set("mining.rules.count", published.rules as f64);
    let grul = file_digest(&store_path)?;
    m.set("serve.store.bytes", grul.0 as f64);
    let reference_path = scratch.path("reference.grul");
    publish(w, &expected, &p, &reference_path, &Tracer::disabled())?;
    verdict.check(grul == file_digest(&reference_path)?, || {
        "traced publish: GRUL bytes differ from the reference's".into()
    });
    drop(expected);

    // Serve, traced: the server records into its own handle.
    let server_obs = Obs::enabled();
    let serve_s = seconds * 0.2;
    let served = {
        let _span = t.span("serve");
        serve_phase(&ServePlan {
            traffic: w.traffic,
            shards: 1,
            pin: true,
            deadline: Duration::from_millis(CLIENT_DEADLINE_MS),
            warmup_frames: w.traffic.warmup_frames(),
            max_frames: w.traffic.window_frames,
            measure: Duration::from_secs_f64(serve_s),
            probe_reloads: PROBE_RELOADS,
            seed,
            store_path: &store_path,
            catalog: &published.catalog,
            obs: server_obs,
        })?
    };
    verdict.attempted += served.attempted;
    verdict.failed += served.failed;
    if served.failed > 0 {
        verdict.notes.push(format!(
            "traced serve: {} of {} frames failed",
            served.failed, served.attempted
        ));
    }
    serve_metrics(&mut m, &served);

    // Layer kernels on the same input and the same store.
    let engine_p50_us = engine_kernels(&mut m, &t, w, &store_path, &published.catalog, seed)?;
    m.set(
        "serve.wire.overhead_us",
        percentile(&served.rtt_ns, 50.0) as f64 / 1e3 - engine_p50_us * w.traffic.batch as f64,
    );
    drop(published);
    fanout_probe(&mut m, &t, &store_path, seed)?;
    storage_kernels(&mut m, &t, &p, &scratch)?;
    mining_kernels(&mut m, &t, w, &p, &one, mined.output())?;
    cluster_kernels(&mut m, &t, &p, one.c2.len())?;
    fpg_kernels(&mut m, &t, w, &p, &one)?;
    checkpoint_kernel(&mut m, &t, w, &p, &scratch, wall)?;
    drop(run_span);

    // Read the spans back. Only the traced mining call was lent the
    // handle, so the node lanes hold exactly its phases.
    let chrome = t.chrome_trace_json();
    let rows = span_rows(&chrome).map_err(Error::Corrupt)?;
    for (metric, span) in [
        ("mining.parallel.span.scan_s", "scan"),
        ("mining.parallel.span.exchange_s", "exchange"),
        ("mining.parallel.span.count_s", "count"),
        ("mining.parallel.span.gather_s", "gather"),
        ("fpg.span.projection_s", "projection"),
    ] {
        m.set(metric, slowest_node_seconds(&rows, &[span], false));
    }
    let attributed = slowest_node_seconds(&rows, &PHASE_SPANS, true);
    m.set("trace.unattributed_s", (traced_wall - attributed).max(0.0));
    let counters = t.obs().metrics();
    m.set(
        "fpg.tree.nodes",
        counters.sum_prefix("counter.fptree.nodes") as f64,
    );
    m.set(
        "fpg.tree.inserts",
        counters.sum_prefix("counter.fptree.inserts") as f64,
    );

    let trace_path = out_dir().join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, &chrome)
        .map_err(|e| Error::io(format!("writing {}", trace_path.display()), e))?;

    let mut out = Outcome::new(verdict);
    for (name, _, _) in PER_LAYER {
        let value = m
            .0
            .remove(name)
            .ok_or_else(|| Error::InvalidConfig(format!("traced run did not measure {name}")))?;
        out.push(Row::one(name, value));
    }
    out.note(format!(
        "traced mine {traced_wall:.4} s against an untraced median of {wall:.4} s (n {}); chrome trace in {}",
        untraced.wall.len(),
        trace_path.display()
    ));
    out.note("self time on the harness lane (span minus its children), seconds:".into());
    for (name, s) in self_seconds_by_name(&rows, HARNESS_LANE) {
        out.note(format!("  {name:<34} {s:>10.6}"));
    }
    Ok(out)
}

/// The workload's mining call with the tracer's handle lent to it. For
/// Cumulate, which has no cluster ledger, the metered variant supplies
/// the meters its modeled time is priced from.
fn traced_mine(w: &Workload, p: &Prepared, obs: Obs) -> Result<(Mined, Option<f64>)> {
    if w.miner != Miner::Cumulate {
        return Ok((mine(w, p, obs)?, None));
    }
    let (output, meters) = cumulate_metered(p.db.partition(0), &p.input.taxonomy, &params_of(w))?;
    let modeled = CostModel::default().node_seconds(&NodeStatsSnapshot {
        cpu_ticks: meters.cpu_ticks,
        hash_probes: meters.hash_probes,
        io_bytes: meters.io_bytes,
        scan_passes: meters.scan_passes,
        ..Default::default()
    });
    Ok((Mined::Sequential(output), Some(modeled)))
}

/// Exact counts out of the `ParallelReport` (or, for the sequential
/// miner, what one node that exchanges nothing amounts to).
fn report_metrics(
    m: &mut Layers,
    report: Option<&ParallelReport>,
    sequential_modeled: Option<f64>,
) {
    let Some(r) = report else {
        m.set(
            "mining.parallel.modeled_s",
            sequential_modeled.unwrap_or(0.0),
        );
        m.set("mining.parallel.bytes_exchanged", 0.0);
        m.set("mining.parallel.messages", 0.0);
        m.set("mining.parallel.probe_skew", 1.0);
        m.set("mining.parallel.duplicated_frac", 0.0);
        m.set("mining.parallel.fragments", 1.0);
        return;
    };
    m.set("mining.parallel.modeled_s", r.modeled_seconds);
    m.set(
        "mining.parallel.bytes_exchanged",
        r.node_totals.iter().map(|n| n.bytes_sent).sum::<u64>() as f64,
    );
    m.set(
        "mining.parallel.messages",
        r.node_totals.iter().map(|n| n.messages_sent).sum::<u64>() as f64,
    );
    // Pass 2 is where placement decides the load; pattern growth has no
    // passes, so its whole-run totals stand in.
    let probes: Vec<u64> = match r.pass(2) {
        Some(pass) => pass.probes_per_node(),
        None => r.node_totals.iter().map(|n| n.hash_probes).collect(),
    };
    let mean = probes.iter().sum::<u64>() as f64 / probes.len().max(1) as f64;
    let max = probes.iter().copied().max().unwrap_or(0) as f64;
    m.set(
        "mining.parallel.probe_skew",
        if mean > 0.0 { max / mean } else { 1.0 },
    );
    let pass2 = r.pass(2);
    m.set(
        "mining.parallel.duplicated_frac",
        pass2.map_or(0.0, |p| {
            p.num_duplicated as f64 / p.num_candidates.max(1) as f64
        }),
    );
    m.set(
        "mining.parallel.fragments",
        pass2.map_or(1.0, |p| p.num_fragments as f64),
    );
}

fn histogram_p50(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    // One histogram per label set (shard, tag); the busiest one speaks.
    snapshot
        .histograms
        .iter()
        .filter(|(key, _)| key.as_str() == name || key.starts_with(&format!("{name}{{")))
        .max_by_key(|(_, h)| h.count)
        .map_or(0.0, |(_, h)| histogram_median(&h.buckets))
}

fn serve_metrics(m: &mut Layers, served: &Served) {
    let latency = histogram_p50(&served.server, "serve.latency_us");
    let shard = histogram_p50(&served.server, "serve.shard_us");
    m.set("serve.server.latency_us_p50", latency);
    m.set("serve.server.shard_us_p50", shard);
    m.set("serve.server.queue_wait_us", (latency - shard).max(0.0));
    let routed = |what: &str| served.server.sum_prefix(&format!("serve.routed.{what}")) as f64;
    let total = routed("single") + routed("fanout") + routed("empty");
    m.set(
        "serve.routed.single_frac",
        if total > 0.0 {
            routed("single") / total
        } else {
            0.0
        },
    );
    let reloads: Vec<f64> = served.reload_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    m.set("serve.epoch.reload_us", median(&reloads));
    m.set(
        "serve.process.cpu_us_per_basket",
        served.cpu_s * 1e6 / served.baskets.max(1) as f64,
    );
}

/// In-process `Catalog::query` and its public stages over the workload's
/// own basket stream, then the codec on the workload's own frames.
/// Returns the median query time in microseconds.
fn engine_kernels(
    m: &mut Layers,
    t: &Tracer,
    w: &Workload,
    store_path: &Path,
    catalog: &Catalog,
    seed: u64,
) -> Result<f64> {
    let store = RuleStore::load(store_path)?;
    let (index, index_s) = t.timed("serve.index.build", || {
        RuleIndex::build(&store.rules, &store.taxonomy)
    });
    m.set("serve.index.build_s", index_s);
    let same_root = w.traffic.same_root;
    let mut stream =
        Baskets::new(&store, seed).ok_or_else(|| Error::InvalidConfig("empty store".into()))?;
    let baskets: Vec<Vec<ItemId>> = (0..ENGINE_BASKETS)
        .map(|_| stream.next(&store.taxonomy, same_root))
        .collect();

    let _span = t.span("serve.engine");
    let mut query_ns: Vec<u64> = Vec::with_capacity(baskets.len());
    let mut answers = Vec::with_capacity(baskets.len());
    for b in &baskets {
        let clock = Stopwatch::start();
        let recs = catalog.query(b, TOP_K as usize);
        query_ns.push(clock.elapsed().as_nanos() as u64);
        answers.push(recs);
    }
    query_ns.sort_unstable();
    let p50_us = percentile(&query_ns, 50.0) as f64 / 1e3;
    m.set("serve.engine.query_us_p50", p50_us);
    m.set(
        "serve.engine.query_us_p99",
        percentile(&query_ns, 99.0) as f64 / 1e3,
    );

    let (mut extend_s, mut match_s, mut merge_s) = (0.0, 0.0, 0.0);
    let (mut examined, mut matched) = (0usize, 0usize);
    for b in &baskets {
        let clock = Stopwatch::start();
        let extended = catalog.extend_basket(b);
        extend_s += clock.elapsed().as_secs_f64();
        let clock = Stopwatch::start();
        let matches = catalog.shard_matches(0, b, &extended);
        match_s += clock.elapsed().as_secs_f64();
        examined += index.candidates(b).len();
        matched += matches.len();
        let clock = Stopwatch::start();
        std::hint::black_box(catalog.merge(matches, TOP_K as usize));
        merge_s += clock.elapsed().as_secs_f64();
    }
    let per_basket_us = 1e6 / baskets.len() as f64;
    m.set("serve.engine.extend_us", extend_s * per_basket_us);
    m.set("serve.engine.match_us", match_s * per_basket_us);
    m.set("serve.engine.merge_us", merge_s * per_basket_us);
    m.set(
        "serve.index.candidates_per_basket",
        examined as f64 / baskets.len() as f64,
    );
    m.set(
        "serve.engine.match_ratio",
        matched as f64 / examined.max(1) as f64,
    );

    // The codec, on the frames this workload's traffic is made of.
    let per_frame = w.traffic.batch;
    let frames = baskets
        .chunks(per_frame)
        .zip(answers.chunks(per_frame))
        .take(PROTOCOL_FRAMES);
    let (mut encode_s, mut decode_s, mut n) = (0.0, 0.0, 0usize);
    for (asked, answered) in frames {
        let (request, response) = match (asked, answered) {
            ([basket], [recs]) => (
                Request::QueryV2 {
                    version: PROTOCOL_VERSION,
                    basket: basket.clone(),
                    top_k: TOP_K,
                    budget_ms: 0,
                },
                Response::ResultsV2 {
                    epoch: 1,
                    shards_missing: 0,
                    recs: recs.clone(),
                },
            ),
            _ => (
                Request::QueryBatch {
                    version: PROTOCOL_VERSION,
                    baskets: asked.to_vec(),
                    top_k: TOP_K,
                    budget_ms: 0,
                },
                Response::ResultsBatch {
                    epoch: 1,
                    answers: answered
                        .iter()
                        .map(|recs| BatchAnswer {
                            shards_missing: 0,
                            recs: recs.clone(),
                        })
                        .collect(),
                },
            ),
        };
        let clock = Stopwatch::start();
        let (req_bytes, resp_bytes) = (encode_request(&request), encode_response(&response));
        encode_s += clock.elapsed().as_secs_f64();
        let clock = Stopwatch::start();
        let decoded = (decode_request(&req_bytes)?, decode_response(&resp_bytes)?);
        decode_s += clock.elapsed().as_secs_f64();
        std::hint::black_box(decoded);
        n += 1;
    }
    m.set("serve.protocol.encode_ns", encode_s * 1e9 / n.max(1) as f64);
    m.set("serve.protocol.decode_ns", decode_s * 1e9 / n.max(1) as f64);
    Ok(p50_us)
}

/// Two shards, unbatched multi-root baskets: two completions can be in
/// flight, which is where the reactor's waker can stick (README, "stuck
/// waker"). Reported, never gated; its failures stay out of the verdict.
fn fanout_probe(m: &mut Layers, t: &Tracer, store_path: &Path, seed: u64) -> Result<()> {
    let _span = t.span("serve.fanout");
    let store = RuleStore::load(store_path)?;
    let catalog = Catalog::new(store, 1);
    let served = serve_phase(&ServePlan {
        traffic: Traffic {
            batch: 1,
            same_root: false,
            reload_every: None,
            window_frames: FANOUT_FRAMES,
        },
        shards: 2,
        pin: false,
        deadline: Duration::from_millis(FANOUT_DEADLINE_MS),
        warmup_frames: 0,
        max_frames: FANOUT_FRAMES,
        measure: Duration::from_millis(1_500),
        probe_reloads: 0,
        seed,
        store_path,
        catalog: &catalog,
        obs: Obs::disabled(),
    })?;
    m.set(
        "serve.fanout.rtt_p50_us",
        percentile(&served.rtt_ns, 50.0) as f64 / 1e3,
    );
    let stalled = served
        .rtt_ns
        .iter()
        .filter(|&&ns| ns >= FANOUT_STALL_US * 1_000)
        .count();
    m.set(
        "serve.fanout.stalled_frac",
        stalled as f64 / served.rtt_ns.len().max(1) as f64,
    );
    Ok(())
}

fn storage_kernels(m: &mut Layers, t: &Tracer, p: &Prepared, scratch: &Scratch) -> Result<()> {
    let (scanned, scan_s) = t.timed("storage.flat.scan", || -> Result<usize> {
        let mut n = 0;
        for part in p.db.partitions() {
            let mut scan = part.scan()?;
            while let Some(txn) = scan.next_slice()? {
                n += usize::from(!std::hint::black_box(txn).is_empty());
            }
        }
        Ok(n)
    });
    m.set(
        "storage.flat.scan_mtxn_per_s",
        scanned? as f64 / 1e6 / scan_s.max(1e-9),
    );

    let flat = FlatPartition::from_source(p.db.partition(0))?;
    let path = scratch.path("partition-0.gfp1");
    let (written, write_s) = t.timed("storage.flat.gfp1_write", || flat.write_to(&path));
    written?;
    let (opened, open_s) = t.timed("storage.flat.gfp1_open", || FlatPartition::open(&path));
    opened?;
    let bytes = std::fs::metadata(&path)
        .map_err(|e| Error::io("sizing the GFP1 file", e))?
        .len();
    m.set("storage.flat.gfp1_write_s", write_s);
    m.set("storage.flat.gfp1_open_s", open_s);
    m.set("storage.flat.gfp1_mb", bytes as f64 / (1024.0 * 1024.0));
    Ok(())
}

/// Taxonomy, candidate generation, the counter and the wire batches, each
/// over every transaction of the input, single-threaded.
fn mining_kernels(
    m: &mut Layers,
    t: &Tracer,
    w: &Workload,
    p: &Prepared,
    one: &PassOne,
    mined: &MiningOutput,
) -> Result<()> {
    let tax = &p.input.taxonomy;
    let txns = &p.input.transactions;

    let mut buf = Vec::new();
    let (extended_items, extend_s) = t.timed("taxonomy.extend", || {
        txns.iter()
            .map(|txn| {
                tax.extend_transaction_into(txn, &mut buf);
                buf.len()
            })
            .sum::<usize>()
    });
    m.set("taxonomy.extend_s", extend_s);
    m.set(
        "taxonomy.extend_items_per_txn",
        extended_items as f64 / txns.len().max(1) as f64,
    );
    let ((), reduce_s) = t.timed("taxonomy.reduce", || {
        for txn in txns {
            tax.reduce_to_lowest_large_into(txn, |it| one.is_large[it.index()], &mut buf);
            std::hint::black_box(&buf);
        }
    });
    m.set("taxonomy.reduce_s", reduce_s);

    let (c2, pairs_s) = t.timed("mining.candidate.pairs", || {
        generate_pairs(&one.l1, Some(tax))
    });
    m.set("mining.candidate.pairs_s", pairs_s);
    m.set("mining.candidate.c2", c2.len() as f64);
    let l2: Vec<Itemset> = mined.large(2).map_or_else(Vec::new, |pass| {
        pass.itemsets.iter().map(|(s, _)| s.clone()).collect()
    });
    let (c3, join_s) = t.timed("mining.candidate.join_k3", || generate_candidates(&l2));
    m.set("mining.candidate.join_k3_s", join_s);
    m.set("mining.candidate.c3", c3.len() as f64);
    drop(c3);

    let (mut counter, build_s) = t.timed("mining.counter.build", || {
        build_counter(params_of(w).counter, 2, &c2)
    });
    let (outcome, count_s) = t.timed("mining.counter.count", || {
        let mut total = CountOutcome::default();
        for txn in txns {
            tax.extend_transaction_into(txn, &mut buf);
            total.absorb(counter.count_transaction(&buf));
        }
        total
    });
    m.set("mining.counter.build_s", build_s);
    // The span holds the extension too; its own time was just measured.
    m.set("mining.counter.count_s", (count_s - extend_s).max(0.0));
    m.set("mining.counter.work", outcome.work as f64);
    m.set("mining.counter.hits", outcome.hits as f64);
    m.set(
        "mining.counter.hit_ratio",
        outcome.hits as f64 / outcome.work.max(1) as f64,
    );
    m.set(
        "mining.counter.arena_bytes",
        counter.arena_stats().map_or(0.0, |a| a.bytes as f64),
    );
    drop(counter);

    // What HPGM ships (k-itemsets) and what the H-HPGM family ships (item
    // lists), batched and flushed at the senders' threshold.
    let mut payloads = Vec::new();
    let ((), encode_s) = t.timed("mining.wire.encode", || {
        let mut sets = ItemsetBatch::new(2);
        for c in &c2 {
            sets.push(c.items());
            if sets.byte_len() >= BATCH_BYTES {
                payloads.push((2, sets.take()));
            }
        }
        payloads.push((2, sets.take()));
        let mut lists = ItemListBatch::new();
        for txn in txns {
            lists.push(txn);
            if lists.byte_len() >= BATCH_BYTES {
                payloads.push((0, lists.take()));
            }
        }
        payloads.push((0, lists.take()));
    });
    let mb = payloads.iter().map(|(_, b)| b.len()).sum::<usize>() as f64 / (1024.0 * 1024.0);
    let (decoded, decode_s) = t.timed("mining.wire.decode", || -> Result<usize> {
        let mut items = 0;
        let mut scratch = Vec::new();
        for (k, payload) in &payloads {
            if *k == 0 {
                for_each_item_list(payload, &mut scratch, |list| {
                    items += list.len();
                    Ok(())
                })?;
            } else {
                for_each_itemset(payload, *k, |set| {
                    items += set.len();
                    Ok(())
                })?;
            }
        }
        Ok(items)
    });
    std::hint::black_box(decoded?);
    m.set("mining.wire.encode_mb_per_s", mb / encode_s.max(1e-9));
    m.set("mining.wire.decode_mb_per_s", mb / decode_s.max(1e-9));

    // Fine-grain duplicate selection under the free memory an even
    // candidate split would leave on a node of the 1.5 × regime.
    let total = c2.len() as u64 * candidate_entry_bytes(2);
    let free = memory_per_node(c2.len(), 1.5).saturating_sub(total / NODES as u64);
    let (selection, select_s) = t.timed("mining.duplicate.select", || {
        select_duplicates(
            DuplicateGrain::Fine,
            &c2,
            tax,
            &one.item_counts,
            txns.len() as u64,
            &one.is_large,
            free,
        )
    });
    std::hint::black_box(selection);
    m.set("mining.duplicate.select_s", select_s);
    Ok(())
}

/// Links, collectives and thread start-up of the simulated cluster, on
/// two nodes, with nothing else to do.
fn cluster_kernels(m: &mut Layers, t: &Tracer, p: &Prepared, c2: usize) -> Result<()> {
    let config = cluster_of(p, Obs::disabled());
    let payload = encode_items(&vec![ItemId(7); BATCH_BYTES / 4]);
    let (sent, link_s) = t.timed("cluster.link", || {
        Cluster::run(&config, |ctx| {
            let mut exchange = ctx.exchange();
            if ctx.node_id() == 0 {
                for i in 0..LINK_MESSAGES {
                    exchange.send(1, 1, payload.clone())?;
                    if i % 64 == 0 {
                        exchange.poll(|_| Ok(()))?;
                    }
                }
            }
            exchange.finish(|env| {
                std::hint::black_box(env.payload.len());
                Ok(())
            })
        })
    });
    sent?;
    m.set(
        "cluster.link.mb_per_s",
        (LINK_MESSAGES * payload.len()) as f64 / (1024.0 * 1024.0) / link_s.max(1e-9),
    );
    m.set(
        "cluster.link.msg_per_s",
        LINK_MESSAGES as f64 / link_s.max(1e-9),
    );

    let contribution = vec![1u64; c2.max(1)];
    let (reduced, reduce_s) = t.timed("cluster.allreduce", || {
        Cluster::run(&config, |ctx| {
            for _ in 0..ALLREDUCE_ROUNDS {
                std::hint::black_box(ctx.all_reduce_u64(&contribution)?);
            }
            Ok(())
        })
    });
    reduced?;
    let (met, barrier_s) = t.timed("cluster.barrier", || {
        Cluster::run(&config, |ctx| {
            for _ in 0..BARRIER_ROUNDS {
                ctx.barrier()?;
            }
            Ok(())
        })
    });
    met?;
    let (spawned, spawn_s) = t.timed("cluster.spawn", || -> Result<()> {
        for _ in 0..SPAWN_ROUNDS {
            Cluster::run(&config, |_| Ok(()))?;
        }
        Ok(())
    });
    spawned?;
    let spawn_us = spawn_s * 1e6 / SPAWN_ROUNDS as f64;
    m.set("cluster.spawn_us", spawn_us);
    // Each kernel paid one spawn of its own; take it out.
    m.set(
        "cluster.allreduce_us",
        ((reduce_s * 1e6 - spawn_us) / ALLREDUCE_ROUNDS as f64).max(0.0),
    );
    m.set(
        "cluster.barrier_us",
        ((barrier_s * 1e6 - spawn_us) / BARRIER_ROUNDS as f64).max(0.0),
    );
    Ok(())
}

/// The pattern-growth family on the same input: its sequential miner, and
/// the tree build alone.
fn fpg_kernels(
    m: &mut Layers,
    t: &Tracer,
    w: &Workload,
    p: &Prepared,
    one: &PassOne,
) -> Result<()> {
    let tax = &p.input.taxonomy;
    let params = params_of(w);
    let whole = p.input.partition(1)?;
    let (sequential, sequential_s) = t.timed("fpg.sequential", || {
        gar_fpg::mine_sequential(whole.partition(0), tax, &params)
    });
    std::hint::black_box(sequential?);
    m.set("fpg.sequential_s", sequential_s);

    let threshold = params.min_support_count(p.input.transactions.len() as u64);
    let (nodes, build_s) = t.timed("fpg.tree.build", || {
        let order = ItemOrder::new(&one.item_counts, threshold);
        let mut tree = FpTree::new(order.num_large());
        let (mut extended, mut ranks) = (Vec::new(), Vec::new());
        for txn in &p.input.transactions {
            tax.extend_transaction_into(txn, &mut extended);
            order.project(&extended, &mut ranks);
            tree.insert(&ranks);
        }
        tree.num_nodes()
    });
    std::hint::black_box(nodes);
    m.set("fpg.tree.build_s", build_s);
    Ok(())
}

/// The fault-tolerant path no end-to-end workload pays: the same mining
/// call through `mine_parallel_with` and a checkpoint directory, over the
/// untraced median. Sequential Cumulate has no such path and reads 0.
fn checkpoint_kernel(
    m: &mut Layers,
    t: &Tracer,
    w: &Workload,
    p: &Prepared,
    scratch: &Scratch,
    untraced_wall: f64,
) -> Result<()> {
    let dir = scratch.path("checkpoints");
    let options = MineOptions {
        checkpoint_dir: Some(dir.clone()),
        ..MineOptions::default()
    };
    let params = params_of(w);
    let cluster = cluster_of(p, Obs::disabled());
    let tax = &p.input.taxonomy;
    let (ran, s) = t.timed("mining.checkpoint", || -> Result<bool> {
        match w.miner {
            Miner::Cumulate => return Ok(false),
            Miner::Parallel(algorithm) => {
                gar_mining::parallel::mine_parallel_with(
                    algorithm, &p.db, tax, &params, &cluster, &options,
                )?;
            }
            Miner::FpGrowth => {
                gar_fpg::mine_parallel_with(&p.db, tax, &params, &cluster, &options)?;
            }
        }
        Ok(true)
    });
    if !ran? {
        m.set("mining.checkpoint.overhead_ratio", 0.0);
        m.set("mining.checkpoint.bytes", 0.0);
        return Ok(());
    }
    let bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| Error::io("listing the checkpoint directory", e))?
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    m.set(
        "mining.checkpoint.overhead_ratio",
        s / untraced_wall.max(1e-9),
    );
    m.set("mining.checkpoint.bytes", bytes as f64);
    Ok(())
}
