//! Serve conformance suite: the wire path must be indistinguishable
//! from the in-process engine.
//!
//! Two contracts, each checked at 1, 2, and 4 shards:
//!
//! * **Batched wire ≡ engine** — every basket of a `QueryBatch` frame
//!   answers exactly what [`Catalog::query`] answers in process, before
//!   and after an epoch swap.
//! * **Affinity ≡ broadcast** — raw response payloads for seeded
//!   random baskets are byte-identical across shard counts (and to the
//!   locally encoded single-shard expectation). A 1-shard server
//!   effectively broadcasts everything, so equality across shard
//!   counts is exactly "affinity routing agrees with
//!   broadcast-and-merge".

// What this suite drives does not exist in model-checking builds.
#![cfg(not(gar_loom))]

use gar_cluster::RetryPolicy;
use gar_mining::rules::Rule;
use gar_obs::Obs;
use gar_serve::protocol::{encode_response, Response};
use gar_serve::{serve, BatchReply, Catalog, Client, QueryReply, RuleStore, Server, ServerConfig};
use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
use gar_types::{iset, ItemId, Itemset};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn sa95_taxonomy() -> Taxonomy {
    let mut b = TaxonomyBuilder::new(8);
    for (c, p) in [(1, 0), (2, 0), (3, 1), (4, 1), (6, 5), (7, 5)] {
        b.edge(c, p).unwrap();
    }
    b.build().unwrap()
}

fn rule(a: Itemset, c: Itemset, sup: u64, conf: f64) -> Rule {
    Rule {
        antecedent: a,
        consequent: c,
        support_count: sup,
        support: sup as f64 / 6.0,
        confidence: conf,
    }
}

/// Epoch-1 rules (the chaos/end-to-end fixture).
fn store_v1() -> RuleStore {
    let rules = vec![
        rule(iset![1], iset![7], 2, 2.0 / 3.0),
        rule(iset![3], iset![2], 3, 0.9),
        rule(iset![7], iset![1], 2, 1.0),
        rule(iset![2], iset![6], 1, 0.4),
        rule(iset![4], iset![7], 1, 0.5),
    ];
    RuleStore::new(rules, sa95_taxonomy(), 6)
}

/// Epoch-2 rules swapped in by a reload.
fn store_v2() -> RuleStore {
    let rules = vec![
        rule(iset![1], iset![7], 4, 0.8),
        rule(iset![2], iset![3], 2, 0.6),
        rule(iset![6], iset![7], 3, 0.7),
    ];
    RuleStore::new(rules, sa95_taxonomy(), 8)
}

/// SplitMix64, the workspace's seeded stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded basket over the fixture's items: mixes single-root baskets
/// (affinity's fast path) and multi-root ones (forced fan-out).
fn basket(state: &mut u64) -> Vec<ItemId> {
    let universe = [0u32, 1, 2, 3, 4, 5, 6, 7];
    let len = 1 + (splitmix(state) % 3) as usize;
    (0..len)
        .map(|_| ItemId(universe[(splitmix(state) % universe.len() as u64) as usize]))
        .collect()
}

fn start(shards: usize, obs: Obs) -> Server {
    let cfg = ServerConfig {
        shards,
        deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    serve("127.0.0.1:0", store_v1(), cfg, obs).unwrap()
}

fn connect(server: &Server) -> Client {
    Client::connect(
        &server.local_addr().to_string(),
        Some(Duration::from_secs(5)),
        &RetryPolicy::default(),
    )
    .unwrap()
}

fn scratch_path(name: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "gar-serve-conf-{}-{seq}-{name}",
        std::process::id()
    ))
}

const TOP_K: usize = 10;
const SEED: u64 = 0xC0FF_EE11;

#[test]
fn batched_wire_answers_match_the_in_process_engine() {
    // Reference engines are single-shard: a 1-shard catalog scans
    // every rule, i.e. broadcast-and-merge by construction.
    let refs = [
        (1u64, Catalog::new(store_v1(), 1)),
        (2u64, Catalog::new(store_v2(), 1)),
    ];
    let path = scratch_path("conform.grul");
    store_v2().save(&path).unwrap();
    for shards in [1usize, 2, 4] {
        let server = start(shards, Obs::disabled());
        let mut client = connect(&server);
        for (epoch, reference) in &refs {
            if *epoch == 2 {
                assert_eq!(client.reload(&path.to_string_lossy()).unwrap(), 2);
            }
            let mut state = SEED ^ epoch;
            // Each pass is asked twice: a repeated question must get
            // the same answer.
            for _pass in 0..2 {
                let mut pass_state = state;
                let baskets: Vec<Vec<ItemId>> = (0..40).map(|_| basket(&mut pass_state)).collect();
                for chunk in baskets.chunks(8) {
                    let reply = client.query_batch(chunk, TOP_K as u32, 0).unwrap();
                    let BatchReply::Results {
                        epoch: got,
                        answers,
                    } = reply
                    else {
                        panic!("unbudgeted batch was shed");
                    };
                    assert_eq!(got, *epoch);
                    assert_eq!(answers.len(), chunk.len());
                    for (b, a) in chunk.iter().zip(&answers) {
                        assert_eq!(
                            a.shards_missing, 0,
                            "healthy server degraded {b:?} at {shards} shards"
                        );
                        assert_eq!(
                            a.recs,
                            reference.query(b, TOP_K),
                            "batched wire answer diverged from the engine \
                             for {b:?} at {shards} shards"
                        );
                    }
                }
            }
            state = splitmix(&mut state); // decouple passes per epoch
        }
        client.shutdown().unwrap();
        server.wait().unwrap();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn affinity_routing_is_byte_identical_to_broadcast_across_shard_counts() {
    let reference = Catalog::new(store_v1(), 1);
    let mut state = SEED;
    let baskets: Vec<Vec<ItemId>> = (0..60).map(|_| basket(&mut state)).collect();
    // Locally encoded expectation = broadcast-and-merge over every rule.
    let expected: Vec<Vec<u8>> = baskets
        .iter()
        .map(|b| {
            encode_response(&Response::ResultsV2 {
                epoch: 1,
                shards_missing: 0,
                recs: reference.query(b, TOP_K),
            })
        })
        .collect();
    for shards in [1usize, 2, 4] {
        let obs = Obs::enabled();
        let server = start(shards, obs.clone());
        let mut client = connect(&server);
        for (b, want) in baskets.iter().zip(&expected) {
            let got = client.query_v2_raw(b, TOP_K as u32, 0).unwrap();
            assert_eq!(
                &got, want,
                "raw payload for {b:?} differs from broadcast at {shards} shards"
            );
        }
        // Batched framing must carry the same answers too.
        for chunk in baskets.chunks(16) {
            let BatchReply::Results { epoch, answers } =
                client.query_batch(chunk, TOP_K as u32, 0).unwrap()
            else {
                panic!("unbudgeted batch was shed");
            };
            assert_eq!(epoch, 1);
            for (b, a) in chunk.iter().zip(&answers) {
                assert_eq!(a.recs, reference.query(b, TOP_K));
            }
        }
        let snap = obs.metrics();
        let single = snap
            .counters
            .get("serve.routed.single")
            .copied()
            .unwrap_or(0);
        let fanout = snap
            .counters
            .get("serve.routed.fanout")
            .copied()
            .unwrap_or(0);
        // The seeded mix must actually exercise both paths, otherwise
        // this test proves nothing about affinity.
        assert!(single > 0, "no single-root basket was routed: {snap:?}");
        assert!(fanout > 0, "no multi-root basket fanned out: {snap:?}");
        client.shutdown().unwrap();
        server.wait().unwrap();
    }
}

#[test]
fn fanout_round_trips_never_wait_out_the_poll_interval() {
    // Regression: the reactor used to clear its waker flag *before*
    // draining the waker pipe. A second shard's wake landing in between
    // wrote a byte the drain ate, the flag stayed set, and from then on
    // every completion waited for the 100 ms poll timeout. Unbatched
    // multi-root baskets at 2 shards (two workers waking per query) hit
    // that within a few thousand round trips.
    let server = start(2, Obs::disabled());
    let mut client = connect(&server);
    let mut slow = 0;
    for i in 0..20_000 {
        let clock = gar_obs::Stopwatch::start();
        let reply = client.query_v2(&[ItemId(3), ItemId(7)], 10, 0).unwrap();
        let took = clock.elapsed();
        assert!(
            matches!(
                reply,
                QueryReply::Results {
                    shards_missing: 0,
                    ..
                }
            ),
            "round trip {i}: {reply:?}"
        );
        // A stuck waker makes *every* later round trip slow; tolerate
        // the odd scheduling hiccup of a loaded test host.
        slow += usize::from(took >= Duration::from_millis(50));
        assert!(slow < 3, "round trip {i} took {took:?}: lost waker nudge");
    }
    client.shutdown().unwrap();
    server.wait().unwrap();
}
