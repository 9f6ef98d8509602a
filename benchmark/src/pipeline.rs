//! The three timed phases every workload runs — mine, publish, serve —
//! and the end-to-end run that strings them together with tracing off.
//!
//! The traced run (`layers.rs`) calls the same phase functions with a
//! live [`Tracer`], so both runs exercise one code path.

use crate::input::{prepare, Baskets, Digest, Prepared};
use crate::probe::SpeedProbe;
use crate::report::{Outcome, Row};
use crate::spec::{
    Miner, Traffic, Workload, CLIENT_DEADLINE_MS, CLUSTER_DEADLINE_S, MIN_ROUNDS, NODES,
    SERVE_WINDOW_CAP_S, TOP_K, VERIFY_EVERY,
};
use crate::stats::{percentile, samples_needed};
use crate::sys::{peak_rss_mb, process_cpu_seconds, Pinned};
use crate::trace::Tracer;
use gar_cluster::{ClusterConfig, RetryPolicy};
use gar_mining::parallel::mine_parallel;
use gar_mining::rules::derive_rules;
use gar_mining::sequential::cumulate;
use gar_mining::{MiningOutput, MiningParams, ParallelReport};
use gar_obs::{MetricsSnapshot, Obs, Stopwatch};
use gar_serve::{
    serve, BatchReply, Catalog, Client, QueryReply, Recommendation, RuleStore, ServerConfig,
};
use gar_types::{Error, ItemId, Result};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Most rounds of one run, so a pipeline that got very fast cannot fill
/// memory with samples.
const MAX_ROUNDS: usize = 400;

/// The scratch directory of one run, inside the checkout, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> Result<Scratch> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("creating {}", dir.display()), e))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        drop(std::fs::remove_dir_all(&self.0));
    }
}

/// `benchmark/out`, relative to the checkout root the command runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

pub fn params_of(w: &Workload) -> MiningParams {
    let mut params = MiningParams::with_min_support(w.min_support);
    params.max_pass = w.max_pass;
    params
}

/// What one mining call returned.
pub enum Mined {
    Sequential(MiningOutput),
    Parallel(ParallelReport),
}

impl Mined {
    pub fn output(&self) -> &MiningOutput {
        match self {
            Mined::Sequential(output) => output,
            Mined::Parallel(report) => &report.output,
        }
    }

    pub fn report(&self) -> Option<&ParallelReport> {
        match self {
            Mined::Sequential(_) => None,
            Mined::Parallel(report) => Some(report),
        }
    }
}

/// The simulated cluster every parallel call of a run uses: a deadline on
/// each blocking wait, so a hung peer is an error and not a stuck run.
pub fn cluster_of(p: &Prepared, obs: Obs) -> ClusterConfig {
    ClusterConfig::new(NODES, p.memory_per_node)
        .with_deadline(Duration::from_secs(CLUSTER_DEADLINE_S))
        .with_obs(obs)
}

/// The one mining call a workload times.
pub fn mine(w: &Workload, p: &Prepared, obs: Obs) -> Result<Mined> {
    let params = params_of(w);
    let cluster = cluster_of(p, obs);
    Ok(match w.miner {
        Miner::Cumulate => {
            Mined::Sequential(cumulate(p.db.partition(0), &p.input.taxonomy, &params)?)
        }
        Miner::Parallel(algorithm) => Mined::Parallel(mine_parallel(
            algorithm,
            &p.db,
            &p.input.taxonomy,
            &params,
            &cluster,
        )?),
        Miner::FpGrowth => Mined::Parallel(gar_fpg::mine_parallel(
            &p.db,
            &p.input.taxonomy,
            &params,
            &cluster,
        )?),
    })
}

/// The independent answer the mined output must equal: sequential
/// Cumulate, or — where Cumulate itself is measured — the pattern-growth
/// family's sequential miner.
pub fn reference(w: &Workload, p: &Prepared) -> Result<MiningOutput> {
    let params = params_of(w);
    match w.miner {
        Miner::Cumulate => gar_fpg::mine_sequential(p.db.partition(0), &p.input.taxonomy, &params),
        Miner::Parallel(_) | Miner::FpGrowth => {
            let whole = p.input.partition(1)?;
            cumulate(whole.partition(0), &p.input.taxonomy, &params)
        }
    }
}

/// Digest of what was mined: thresholds and every large itemset with its
/// count, not who mined it.
pub fn output_digest(output: &MiningOutput) -> u64 {
    let mut d = Digest::new();
    d.word(output.num_transactions);
    d.word(output.min_support_count);
    for pass in &output.passes {
        d.word(pass.k as u64);
        for (itemset, count) in &pass.itemsets {
            d.items(itemset.items());
            d.word(*count);
        }
    }
    d.0
}

/// Wall and CPU seconds of the repetitions of one phase.
#[derive(Default)]
pub struct Reps {
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
}

/// Runs `timed` once as a discarded warm-up, then `reps` more times under
/// the wall and the process-CPU clock.
pub fn repeat<T>(reps: usize, mut timed: impl FnMut() -> Result<T>) -> Result<Reps> {
    timed()?;
    let mut out = Reps::default();
    for _ in 0..reps {
        let cpu = process_cpu_seconds();
        let clock = Stopwatch::start();
        timed()?;
        out.wall.push(clock.elapsed().as_secs_f64());
        out.cpu.push(process_cpu_seconds() - cpu);
    }
    Ok(out)
}

/// Mined itemsets turned into a servable catalog: what a hot swap pays.
pub struct Published {
    pub catalog: Catalog,
    pub rules: usize,
    /// derive, build, save, load, catalog — seconds each.
    pub stages: [f64; 5],
}

pub fn publish(
    w: &Workload,
    output: &MiningOutput,
    p: &Prepared,
    path: &Path,
    t: &Tracer,
) -> Result<Published> {
    let tax = &p.input.taxonomy;
    let (rules, derive_s) = t.timed("mining.rules.derive", || {
        derive_rules(output, w.min_confidence, Some(tax))
    });
    let (store, build_s) = t.timed("serve.store.build", || {
        RuleStore::new(rules, tax.clone(), output.num_transactions)
    });
    let (saved, save_s) = t.timed("serve.store.save", || store.save(path));
    saved?;
    drop(store);
    let (loaded, load_s) = t.timed("serve.store.load", || RuleStore::load(path));
    let loaded = loaded?;
    let rules = loaded.rules.len();
    let (catalog, catalog_s) = t.timed("serve.engine.catalog", || Catalog::new(loaded, 1));
    Ok(Published {
        catalog,
        rules,
        stages: [derive_s, build_s, save_s, load_s, catalog_s],
    })
}

/// Length and digest of the GRUL file at `path`.
pub fn file_digest(path: &Path) -> Result<(u64, u64)> {
    let bytes =
        std::fs::read(path).map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
    let mut d = Digest::new();
    d.bytes(&bytes);
    Ok((bytes.len() as u64, d.0))
}

/// How the serve phase is driven.
pub struct ServePlan<'a> {
    pub traffic: Traffic,
    pub shards: usize,
    /// Keep generator and server on one CPU (`sys::Pinned` says why).
    pub pin: bool,
    pub deadline: Duration,
    /// Frames sent before the measured ones; nothing about them is kept.
    pub warmup_frames: usize,
    /// Stop after this many measured frames ...
    pub max_frames: usize,
    /// ... or when this much time has been measured, whichever is first.
    pub measure: Duration,
    /// Reloads sent after the measured loop, timed but not counted as
    /// attempted operations (the traced run's reload-latency probe).
    pub probe_reloads: usize,
    pub seed: u64,
    /// The GRUL file the server loads (and reloads).
    pub store_path: &'a Path,
    /// In-process engine over the same store: the expected answers.
    pub catalog: &'a Catalog,
    /// Enabled in the traced run; the server records into it.
    pub obs: Obs,
}

/// What the closed loop saw.
#[derive(Default)]
pub struct Served {
    /// Round-trip nanoseconds of every measured query frame, ascending.
    pub rtt_ns: Vec<u64>,
    pub reload_ns: Vec<u64>,
    pub baskets: u64,
    /// Query frames plus reloads sent in the measured part.
    pub attempted: u64,
    /// Errored, shed, at or past the client deadline, or answered wrongly.
    pub failed: u64,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// The server's own counters and histograms (empty when `obs` is off).
    pub server: MetricsSnapshot,
}

impl Served {
    pub fn qps(&self) -> f64 {
        self.baskets as f64 / self.elapsed_s.max(1e-9)
    }
}

/// One frame's baskets with the answers the server gave, kept for the
/// check against `Catalog::query` after the loop (so checking costs the
/// loop nothing).
struct Sampled {
    baskets: Vec<Vec<ItemId>>,
    answers: Vec<Vec<Recommendation>>,
}

/// Sends one frame — `QueryV2` for a single basket, `QueryBatch` for more;
/// `Ok(None)` is a shed or degraded answer.
fn round_trip(
    client: &mut Client,
    baskets: &[Vec<ItemId>],
) -> Result<Option<Vec<Vec<Recommendation>>>> {
    Ok(match baskets {
        [basket] => match client.query_v2(basket, TOP_K, 0)? {
            QueryReply::Results {
                shards_missing: 0,
                recs,
                ..
            } => Some(vec![recs]),
            _ => None,
        },
        _ => match client.query_batch(baskets, TOP_K, 0)? {
            BatchReply::Results { answers, .. }
                if answers.iter().all(|a| a.shards_missing == 0) =>
            {
                Some(answers.into_iter().map(|a| a.recs).collect())
            }
            _ => None,
        },
    })
}

/// Starts an in-process server on the store, drives it closed-loop over
/// one connection (one request in flight), stops it and waits for its
/// threads. The generator is the calling thread.
pub fn serve_phase(plan: &ServePlan<'_>) -> Result<Served> {
    // Before the server starts: its threads inherit the mask.
    let _pinned = plan.pin.then(Pinned::to_one_cpu);
    let store = RuleStore::load(plan.store_path)?;
    let mut stream = Baskets::new(&store, plan.seed).ok_or_else(|| {
        Error::InvalidConfig("the published store holds no rule; nothing to ask".into())
    })?;
    let config = ServerConfig {
        shards: plan.shards,
        ..ServerConfig::default()
    };
    let server = serve("127.0.0.1:0", store, config, plan.obs.clone())?;
    let driven = drive(plan, &mut stream, &server.local_addr().to_string());
    server.shutdown();
    server.wait()?;
    let mut served = driven?;
    served.server = plan.obs.metrics();
    Ok(served)
}

fn drive(plan: &ServePlan<'_>, stream: &mut Baskets, addr: &str) -> Result<Served> {
    let tax = plan.catalog.taxonomy();
    let Traffic {
        batch: per_frame,
        same_root,
        reload_every,
        ..
    } = plan.traffic;
    let mut next_frame = || -> Vec<Vec<ItemId>> {
        (0..per_frame)
            .map(|_| stream.next(tax, same_root))
            .collect()
    };
    let store_path = plan.store_path.to_string_lossy();
    let mut client = Client::connect(addr, Some(plan.deadline), &RetryPolicy::default())?;

    // Warm-up: connection, page cache, allocator and branch predictors
    // settle; nothing is recorded.
    for _ in 0..plan.warmup_frames {
        round_trip(&mut client, &next_frame())?;
    }

    let mut served = Served::default();
    let mut sampled: Vec<Sampled> = Vec::new();
    let deadline_ns = plan.deadline.as_nanos() as u64;
    let cpu = process_cpu_seconds();
    let clock = Stopwatch::start();
    let mut frames = 0usize;
    while frames < plan.max_frames && clock.elapsed() < plan.measure {
        let baskets = next_frame();
        let sent = Stopwatch::start();
        let reply = round_trip(&mut client, &baskets);
        let ns = sent.elapsed().as_nanos() as u64;
        frames += 1;
        served.attempted += 1;
        served.baskets += per_frame as u64;
        served.rtt_ns.push(ns);
        match reply {
            Ok(Some(answers)) if ns < deadline_ns => {
                if frames.is_multiple_of(VERIFY_EVERY) {
                    sampled.push(Sampled { baskets, answers });
                }
            }
            // Shed, degraded, late or errored: the frame failed. A
            // timed-out client has already reconnected and retried once.
            Ok(_) | Err(_) => served.failed += 1,
        }
        if reload_every.is_some_and(|n| frames.is_multiple_of(n)) {
            let sent = Stopwatch::start();
            let swapped = client.reload(&store_path);
            served.reload_ns.push(sent.elapsed().as_nanos() as u64);
            served.attempted += 1;
            served.failed += u64::from(swapped.is_err());
        }
    }
    served.elapsed_s = clock.elapsed().as_secs_f64();
    served.cpu_s = process_cpu_seconds() - cpu;
    served.rtt_ns.sort_unstable();
    for _ in 0..plan.probe_reloads {
        let sent = Stopwatch::start();
        client.reload(&store_path)?;
        served.reload_ns.push(sent.elapsed().as_nanos() as u64);
    }

    for s in &sampled {
        let right = s
            .baskets
            .iter()
            .zip(&s.answers)
            .all(|(basket, got)| plan.catalog.query(basket, TOP_K as usize) == *got);
        served.failed += u64::from(!right);
    }
    Ok(served)
}

/// What the correctness gate found; every miss is a failed operation.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// Mines the reference, publishes it the same way, and holds every
/// repetition's digest against it.
pub fn verify(
    w: &Workload,
    p: &Prepared,
    scratch: &Scratch,
    mined: &[u64],
    published: &[(u64, u64)],
    verdict: &mut Verdict,
) -> Result<()> {
    let expected = reference(w, p)?;
    let want = output_digest(&expected);
    for (i, got) in mined.iter().enumerate() {
        verdict.check(*got == want, || {
            format!("mining repetition {i}: large itemsets differ from the reference's")
        });
    }
    let path = scratch.path("reference.grul");
    publish(w, &expected, p, &path, &Tracer::disabled())?;
    let want = file_digest(&path)?;
    for (i, got) in published.iter().enumerate() {
        verdict.check(*got == want, || {
            format!("publish repetition {i}: GRUL bytes differ from the reference's")
        });
    }
    Ok(())
}

/// A raw measurement with how slow the host was around it
/// ([`SpeedProbe::slowness`], mean of the reading before and the one
/// after).
#[derive(Clone, Copy)]
struct Timed {
    raw: f64,
    slowness: f64,
}

impl Timed {
    /// A time, stated at the reference host speed.
    fn time(self) -> f64 {
        self.raw / self.slowness
    }

    /// A rate, stated at the reference host speed.
    fn rate(self) -> f64 {
        self.raw * self.slowness
    }
}

/// What one round of the end-to-end run measured.
struct Round {
    setup_s: Timed,
    mine_wall_s: Timed,
    mine_cpu_s: Timed,
    publish_wall_s: Timed,
    /// Slowness around the serve window; its raw figures are in `served`.
    serve_slowness: f64,
    served: Served,
}

impl Round {
    fn serve_us(&self, p: f64) -> Timed {
        Timed {
            raw: percentile(&self.served.rtt_ns, p) as f64 / 1e3,
            slowness: self.serve_slowness,
        }
    }

    fn serve_qps(&self) -> Timed {
        Timed {
            raw: self.served.qps(),
            slowness: self.serve_slowness,
        }
    }
}

/// What the rounds hand to the correctness gate.
#[derive(Default)]
struct Gate {
    mined: Vec<u64>,
    published: Vec<(u64, u64)>,
    large: usize,
    rules: usize,
}

/// One round, the whole path once: set-up, the mining call, the publish
/// of what it mined, and one window of closed-loop traffic against a fresh
/// server on the published file — each between two readings of the speed
/// probe. Digests go to the gate; timings and the input come back.
/// `previous` is the last round's input, dropped first so two inputs never
/// sit in memory together.
fn round(
    w: &Workload,
    seed: u64,
    previous: Option<Prepared>,
    store_path: &Path,
    probe: &mut SpeedProbe,
    gate: &mut Gate,
) -> Result<(Round, Prepared)> {
    drop(previous);
    let before = probe.slowness(1);
    let clock = Stopwatch::start();
    let p = prepare(w, seed, &Tracer::disabled())?;
    let setup_s = clock.elapsed().as_secs_f64();
    let after = probe.slowness(1);
    let setup_slowness = (before + after) / 2.0;

    // The probe runs on as many threads as the mining call.
    let threads = w.miner.threads();
    let before = if threads == 1 {
        after
    } else {
        probe.slowness(threads)
    };
    let cpu = process_cpu_seconds();
    let clock = Stopwatch::start();
    let mined = mine(w, &p, Obs::disabled())?;
    let mine_wall_s = clock.elapsed().as_secs_f64();
    let mine_cpu_s = process_cpu_seconds() - cpu;
    let mine_slowness = (before + probe.slowness(threads)) / 2.0;
    gate.mined.push(output_digest(mined.output()));
    gate.large = mined.output().num_large();

    let before = probe.slowness(1);
    let clock = Stopwatch::start();
    let published = publish(w, mined.output(), &p, store_path, &Tracer::disabled())?;
    let publish_wall_s = clock.elapsed().as_secs_f64();
    gate.published.push(file_digest(store_path)?);
    gate.rules = published.rules;
    drop(mined);

    // Closed loop, one connection, one request in flight; the catalog the
    // publish just built answers the sampled frames in-process. The probe
    // reads on the CPU the window runs on.
    let pinned = Pinned::to_one_cpu();
    let between = probe.slowness(1);
    let served = serve_phase(&ServePlan {
        traffic: w.traffic,
        shards: 1,
        pin: true,
        deadline: Duration::from_millis(CLIENT_DEADLINE_MS),
        warmup_frames: w.traffic.warmup_frames(),
        max_frames: w.traffic.window_frames,
        measure: Duration::from_secs(SERVE_WINDOW_CAP_S),
        probe_reloads: 0,
        seed,
        store_path,
        catalog: &published.catalog,
        obs: Obs::disabled(),
    })?;
    let after = probe.slowness(1);
    drop(pinned);
    let round = Round {
        setup_s: Timed {
            raw: setup_s,
            slowness: setup_slowness,
        },
        mine_wall_s: Timed {
            raw: mine_wall_s,
            slowness: mine_slowness,
        },
        mine_cpu_s: Timed {
            raw: mine_cpu_s,
            slowness: mine_slowness,
        },
        publish_wall_s: Timed {
            raw: publish_wall_s,
            slowness: (before + between) / 2.0,
        },
        serve_slowness: (between + after) / 2.0,
        served,
    };
    Ok((round, p))
}

/// The end-to-end run of one workload: tracing off, every output checked.
///
/// The whole path runs in rounds (set-up, mine, publish, one serve window;
/// again) for `seconds`, and every metric is the median over the rounds of
/// its value at the reference host speed (`probe.rs`). Phases run back to
/// back would each meet a different machine; interleaved, every metric
/// samples the whole run, the probe takes out how slow the host was around
/// each sample, and the median discards what is left of the stretches the
/// host took away.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome> {
    let scratch = Scratch::create()?;
    let mut probe = SpeedProbe::new(NODES);

    // One discarded warm-up round, then rounds until the next one would
    // not fit into `seconds` any more, at least [`MIN_ROUNDS`].
    let store_path = scratch.path("store.grul");
    let mut gate = Gate::default();
    let run_clock = Stopwatch::start();
    let (_, mut p) = round(w, seed, None, &store_path, &mut probe, &mut gate)?;
    let mut rounds: Vec<Round> = Vec::new();
    let mut longest = 0.0f64;
    while rounds.len() < MAX_ROUNDS
        && (rounds.len() < MIN_ROUNDS || run_clock.elapsed().as_secs_f64() + longest <= seconds)
    {
        let clock = Stopwatch::start();
        let (measured, input) = round(w, seed, Some(p), &store_path, &mut probe, &mut gate)?;
        p = input;
        rounds.push(measured);
        longest = longest.max(clock.elapsed().as_secs_f64());
    }

    // Read before the reference run, so the figure is the measured
    // programs' peak and not the checker's; the probe's own (constant,
    // fully touched) memory is taken out.
    let peak_rss = peak_rss_mb() - probe.resident_mb();

    let mut verdict = Verdict::default();
    let (mut round_trips, mut reloads) = (0, 0);
    for r in &rounds {
        verdict.attempted += r.served.attempted;
        verdict.failed += r.served.failed;
        round_trips += r.served.rtt_ns.len();
        reloads += r.served.reload_ns.len();
    }
    if verdict.failed > 0 {
        verdict.notes.push(format!(
            "serve: {} of {} frames errored, were shed, hit the {CLIENT_DEADLINE_MS} ms deadline or answered wrongly",
            verdict.failed, verdict.attempted
        ));
    }
    verify(w, &p, &scratch, &gate.mined, &gate.published, &mut verdict)?;
    verdict.check(round_trips >= samples_needed(99.0), || {
        format!(
            "serve: {round_trips} round trips are too few for a p99 ({} needed)",
            samples_needed(99.0)
        )
    });

    let column = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let mut out = Outcome::new(verdict);
    out.push(Row::reps("setup_s", &column(&|r| r.setup_s.time())));
    out.push(Row::reps("mine_wall_s", &column(&|r| r.mine_wall_s.time())));
    out.push(Row::reps("mine_cpu_s", &column(&|r| r.mine_cpu_s.time())));
    out.push(Row::reps(
        "publish_wall_s",
        &column(&|r| r.publish_wall_s.time()),
    ));
    out.push(Row::one("peak_rss_mb", peak_rss));
    out.push(Row::reps("serve_qps", &column(&|r| r.serve_qps().rate())));
    out.push(Row::reps(
        "serve_lat_p50_us",
        &column(&|r| r.serve_us(50.0).time()),
    ));
    out.push(Row::reps(
        "serve_lat_p99_us",
        &column(&|r| r.serve_us(99.0).time()),
    ));
    out.note(format!(
        "input: {} txns, {} items, digest {:016x}, ‖C2‖ {}, memory/node {} B; mined {} large itemsets; published {} rules; {} rounds after 1 warm-up, {round_trips} round trips, {reloads} reloads",
        p.input.transactions.len(),
        p.input.taxonomy.num_items(),
        p.input.digest(),
        p.c2,
        p.memory_per_node,
        gate.large,
        gate.rules,
        rounds.len(),
    ));
    out.note(
        "rounds as measured, with the host's slowness (x) around each reading; the table below is at reference speed"
            .into(),
    );
    for (i, r) in rounds.iter().enumerate() {
        out.note(format!(
            "round {:>2}: set-up {:.4} s x{:.2}, mine {:.4} s wall {:.4} s cpu x{:.2}, publish {:.4} s x{:.2}, serve {:.1} baskets/s p50 {:.1} us p99 {:.1} us x{:.2} ({} round trips)",
            i + 1,
            r.setup_s.raw,
            r.setup_s.slowness,
            r.mine_wall_s.raw,
            r.mine_cpu_s.raw,
            r.mine_wall_s.slowness,
            r.publish_wall_s.raw,
            r.publish_wall_s.slowness,
            r.serve_qps().raw,
            r.serve_us(50.0).raw,
            r.serve_us(99.0).raw,
            r.serve_slowness,
            r.served.rtt_ns.len(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On a host that reads 25 % slow a time shrinks and a rate grows by
    /// the same factor; at reference speed both stay as measured.
    #[test]
    fn slowness_is_taken_out_of_times_and_put_into_rates() {
        let slow = Timed {
            raw: 2.0,
            slowness: 1.25,
        };
        assert_eq!(slow.time(), 1.6);
        assert_eq!(slow.rate(), 2.5);
        let calm = Timed {
            raw: 2.0,
            slowness: 1.0,
        };
        assert_eq!((calm.time(), calm.rate()), (2.0, 2.0));
    }
}
