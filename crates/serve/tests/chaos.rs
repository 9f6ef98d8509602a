//! Serve-layer chaos soak (`cargo xtask serve-chaos`).
//!
//! Each case runs a real loopback server under a seeded serve fault
//! plan and checks the PR's availability invariants:
//!
//! * the server never aborts — [`Server::wait`] returns `Ok` after
//!   every case;
//! * every accepted query is answered **correctly for its epoch and
//!   live shards** or with a typed retryable reply (`Overloaded`);
//! * a corrupt reload is rejected while the old epoch keeps answering
//!   (proven by the epoch tags in the responses);
//! * a crashed shard restarts and `shards_missing` clears;
//! * after recovery, a deterministic fault-free client subset produces
//!   **byte-identical** transcripts to locally encoded expectations.
//!
//! The seed matrix comes from `GAR_SERVE_CHAOS_SEEDS` (comma-separated
//! u64s; CI pins it), defaulting to `11,23,47`.

use gar_cluster::{FaultPlan, RetryPolicy};
use gar_mining::rules::Rule;
use gar_obs::Obs;
use gar_serve::engine::shard_of;
use gar_serve::protocol::{encode_response, BatchAnswer, Response};
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

/// Epoch-1 rules (same fixture as the end-to-end suite).
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

/// Epoch-2 rules: the refreshed generation a reload swaps in.
fn store_v2() -> RuleStore {
    let rules = vec![
        rule(iset![1], iset![7], 4, 0.8),
        rule(iset![2], iset![3], 2, 0.6),
        rule(iset![6], iset![7], 3, 0.7),
    ];
    RuleStore::new(rules, sa95_taxonomy(), 8)
}

fn seeds() -> Vec<u64> {
    let spec = std::env::var("GAR_SERVE_CHAOS_SEEDS").unwrap_or_else(|_| "11,23,47".into());
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("GAR_SERVE_CHAOS_SEEDS must be u64s"))
        .collect()
}

/// SplitMix64, the workspace's seeded stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded basket over the fixture's leaf/interior items.
fn basket(state: &mut u64) -> Vec<ItemId> {
    let universe = [0u32, 1, 2, 3, 4, 5, 6, 7];
    let len = 1 + (splitmix(state) % 3) as usize;
    (0..len)
        .map(|_| ItemId(universe[(splitmix(state) % universe.len() as u64) as usize]))
        .collect()
}

fn start(shards: usize, faults: &str, obs: Obs) -> Server {
    let cfg = ServerConfig {
        shards,
        deadline: Duration::from_secs(5),
        faults: FaultPlan::parse(faults).unwrap(),
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
        "gar-serve-chaos-{}-{seq}-{name}",
        std::process::id()
    ))
}

/// Asserts a (possibly degraded) reply is correct for its epoch: a
/// complete answer must equal the reference exactly; a degraded answer
/// must be a sub-answer of it (shard suppression is shard-local, so
/// every surviving recommendation appears verbatim in the full one).
fn assert_correct_for_epoch(
    reply: &QueryReply,
    basket: &[ItemId],
    refs: &[(u64, Catalog)],
    top_k: usize,
) {
    let QueryReply::Results {
        epoch,
        shards_missing,
        recs,
    } = reply
    else {
        return; // Overloaded: typed retryable, nothing to compare
    };
    let Some((_, reference)) = refs.iter().find(|(e, _)| e == epoch) else {
        panic!("reply carries unknown epoch {epoch}");
    };
    let expected = reference.query(basket, top_k);
    if *shards_missing == 0 {
        assert_eq!(recs, &expected, "complete answer wrong for {basket:?}");
    } else {
        for rec in recs {
            assert!(
                expected.contains(rec),
                "degraded answer invented {rec:?} for {basket:?}"
            );
        }
    }
}

/// Polls until a fault-free probe sees a complete (non-degraded)
/// answer, i.e. the crashed shard is back.
fn wait_until_recovered(client: &mut Client) {
    for _ in 0..200 {
        // A multi-root basket (roots clothes/footwear) broadcasts to
        // every shard — affinity routing would answer a single-root
        // probe from one healthy shard and miss the one restarting.
        let reply = client.query_v2(&[ItemId(3), ItemId(7)], 10, 0).unwrap();
        if matches!(
            reply,
            QueryReply::Results {
                shards_missing: 0,
                ..
            }
        ) {
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "back-off of a poll bounded by the 200 probes of this loop; the probe's \
                      answer, not the sleep, ends it"
        )]
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("shard never recovered");
}

#[test]
fn shard_panic_degrades_then_recovers_with_byte_identical_answers() {
    for seed in seeds() {
        let obs = Obs::enabled();
        // The 2nd job on shard 0 panics the worker mid-stream.
        let server = start(2, "shard-panic@s0q2", obs.clone());
        let reference = Catalog::new(store_v1(), 1);
        let refs = [(1u64, Catalog::new(store_v1(), 1))];
        let mut client = connect(&server);
        let mut state = seed;
        let mut epochs = Vec::new();
        let mut saw_degraded = false;
        for _ in 0..30 {
            let b = basket(&mut state);
            // Queries are answered (possibly degraded), never errors.
            let reply = client.query_v2(&b, 10, 0).unwrap();
            assert_correct_for_epoch(&reply, &b, &refs, 10);
            if let QueryReply::Results {
                epoch,
                shards_missing,
                ..
            } = &reply
            {
                epochs.push(*epoch);
                saw_degraded |= *shards_missing > 0;
            }
        }
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "epoch went backwards: {epochs:?}"
        );
        assert!(epochs.iter().all(|&e| e == 1), "no reload happened");
        // The supervisor restarted the crashed shard: degraded clears.
        wait_until_recovered(&mut client);
        assert_eq!(
            obs.metrics().counters.get("serve.shard_restarts{shard=0}"),
            Some(&1),
            "seed {seed}: expected exactly one restart"
        );
        // Post-recovery, a deterministic fault-free subset is
        // byte-identical to locally encoded expectations — one basket at
        // a time, then all of them in one batch.
        let mut state = seed ^ 0xDEAD_BEEF;
        let baskets: Vec<Vec<ItemId>> = (0..15).map(|_| basket(&mut state)).collect();
        for b in &baskets {
            let expected_v2 = encode_response(&Response::ResultsV2 {
                epoch: 1,
                shards_missing: 0,
                recs: reference.query(b, 10),
            });
            assert_eq!(client.query_v2_raw(b, 10, 0).unwrap(), expected_v2);
        }
        let expected_batch = encode_response(&Response::ResultsBatch {
            epoch: 1,
            answers: baskets
                .iter()
                .map(|b| BatchAnswer {
                    shards_missing: 0,
                    recs: reference.query(b, 10),
                })
                .collect(),
        });
        assert_eq!(
            client.query_batch_raw(&baskets, 10, 0).unwrap(),
            expected_batch
        );
        assert!(saw_degraded, "seed {seed}: the panic was never observed");
        client.shutdown().unwrap();
        server.wait().unwrap();
    }
}

#[test]
fn stale_swap_is_rejected_and_the_next_good_reload_lands() {
    for seed in seeds() {
        let obs = Obs::enabled();
        // Reload #1 is corrupted in flight; reload #2 is clean.
        let server = start(2, "stale-swap@r1", obs.clone());
        let refs = [
            (1u64, Catalog::new(store_v1(), 1)),
            (2u64, Catalog::new(store_v2(), 1)),
        ];
        let path = scratch_path("refresh.grul");
        store_v2().save(&path).unwrap();
        let mut client = connect(&server);
        let mut state = seed;
        let mut epochs = Vec::new();
        let observe = |client: &mut Client, state: &mut u64, epochs: &mut Vec<u64>| {
            let b = basket(state);
            let reply = client.query_v2(&b, 10, 0).unwrap();
            assert_correct_for_epoch(&reply, &b, &refs, 10);
            if let QueryReply::Results { epoch, .. } = reply {
                epochs.push(epoch);
            }
        };
        for _ in 0..5 {
            observe(&mut client, &mut state, &mut epochs);
        }
        // The stale swap: bytes are damaged post-read, validation must
        // reject, and the old epoch keeps answering.
        let err = client.reload(&path.to_string_lossy()).unwrap_err();
        assert!(err.to_string().contains("reload rejected"), "{err}");
        assert_eq!(server.epoch(), 1, "seed {seed}: corrupt swap landed!");
        for _ in 0..5 {
            observe(&mut client, &mut state, &mut epochs);
        }
        assert!(epochs.iter().all(|&e| e == 1));
        // The next reload of the very same file is clean and lands.
        assert_eq!(client.reload(&path.to_string_lossy()).unwrap(), 2);
        for _ in 0..5 {
            observe(&mut client, &mut state, &mut epochs);
        }
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "epoch went backwards: {epochs:?}"
        );
        assert_eq!(epochs.last(), Some(&2));
        let snap = obs.metrics();
        assert_eq!(snap.counters.get("serve.swap_rejected"), Some(&1));
        assert_eq!(snap.counters.get("serve.swaps"), Some(&1));
        assert_eq!(snap.counters.get("serve.fault.stale_swap"), Some(&1));
        std::fs::remove_file(&path).ok();
        client.shutdown().unwrap();
        server.wait().unwrap();
    }
}

#[test]
fn overload_burst_sheds_typed_and_the_server_survives() {
    for seed in seeds() {
        let obs = Obs::enabled();
        let cfg = ServerConfig {
            shards: 1,
            queue_depth: 2,
            deadline: Duration::from_secs(5),
            faults: FaultPlan::parse("shard-stall@s0q1,hang-ms=400").unwrap(),
        };
        let server = serve("127.0.0.1:0", store_v1(), cfg, obs.clone()).unwrap();
        let reference = Catalog::new(store_v1(), 1);
        let addr = server.local_addr().to_string();

        // The stall victim: its first job parks the only worker 400 ms.
        let victim = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c =
                    Client::connect(&addr, Some(Duration::from_secs(5)), &RetryPolicy::default())
                        .unwrap();
                c.query_v2(&[ItemId(3)], 10, 0).unwrap()
            })
        };
        // Wait until the victim's job is what the worker is stalled on —
        // launched any earlier, a burst query could consume the fire-once
        // stall instead.
        let stalled = gar_obs::Stopwatch::start();
        while obs
            .metrics()
            .counters
            .get("serve.fault.shard_stall{shard=0}")
            != Some(&1)
        {
            assert!(
                stalled.elapsed() < Duration::from_secs(5),
                "seed {seed}: the victim never reached the worker"
            );
            #[expect(
                clippy::disallowed_methods,
                reason = "back-off of a poll bounded by the 5 s deadline asserted above; the \
                          counter ends the wait"
            )]
            std::thread::sleep(Duration::from_millis(1));
        }

        // The burst: more concurrent budgeted queries than the queue
        // can hold. Every one must come back typed — an answer or a
        // shed — never an error, and the process must survive.
        let mut burst = Vec::new();
        for i in 0..8 {
            let addr = addr.clone();
            let mut state = seed.wrapping_add(i);
            let b = basket(&mut state);
            burst.push(std::thread::spawn(move || {
                let mut c =
                    Client::connect(&addr, Some(Duration::from_secs(5)), &RetryPolicy::default())
                        .unwrap();
                c.query_v2(&b, 10, 50).unwrap()
            }));
        }
        let mut shed = 0;
        for h in burst {
            match h.join().expect("burst client panicked") {
                QueryReply::Overloaded { retry_after_ms } => {
                    assert!(retry_after_ms > 0);
                    shed += 1;
                }
                QueryReply::Results {
                    epoch,
                    shards_missing,
                    ..
                } => {
                    assert_eq!(epoch, 1);
                    assert_eq!(shards_missing, 0);
                }
            }
        }
        assert!(shed >= 1, "seed {seed}: burst never shed");
        // The stall victim still gets its full answer.
        let victim = victim.join().expect("victim panicked");
        assert_eq!(
            victim,
            QueryReply::Results {
                epoch: 1,
                shards_missing: 0,
                recs: reference.query(&[ItemId(3)], 10),
            }
        );
        // And the server is healthy afterwards.
        let mut client = connect(&server);
        assert_eq!(
            client.query_v2(&[ItemId(3)], 10, 0).unwrap(),
            QueryReply::Results {
                epoch: 1,
                shards_missing: 0,
                recs: reference.query(&[ItemId(3)], 10),
            }
        );
        let snap = obs.metrics();
        assert!(snap.counters.get("serve.shed").copied().unwrap_or(0) >= 1);
        assert_eq!(
            snap.counters.get("serve.fault.shard_stall{shard=0}"),
            Some(&1)
        );
        client.shutdown().unwrap();
        server.wait().unwrap();
    }
}

#[test]
fn combined_fault_stream_holds_all_invariants() {
    for seed in seeds() {
        let obs = Obs::enabled();
        // Connection c0 resets mid-query (hidden by the client's
        // retry-once, which lands on c1), c1's next response dribbles
        // out slowly, shard 1 panics on its 3rd job, and the first
        // reload is stale.
        let server = start(
            2,
            "conn-reset@c0,slow-frame@c1,shard-panic@s1q3,stale-swap@r1,delay-ms=1",
            obs.clone(),
        );
        let refs = [
            (1u64, Catalog::new(store_v1(), 1)),
            (2u64, Catalog::new(store_v2(), 1)),
        ];
        let path = scratch_path("combined.grul");
        store_v2().save(&path).unwrap();
        let mut client = connect(&server);
        let mut state = seed;
        let mut epochs = Vec::new();
        for i in 0..25 {
            if i == 10 {
                // Stale swap rejected; epoch must not move.
                assert!(client.reload(&path.to_string_lossy()).is_err());
                assert_eq!(server.epoch(), 1);
            }
            if i == 15 {
                assert_eq!(client.reload(&path.to_string_lossy()).unwrap(), 2);
            }
            let b = basket(&mut state);
            let reply = client.query_v2(&b, 10, 0).unwrap();
            assert_correct_for_epoch(&reply, &b, &refs, 10);
            if let QueryReply::Results { epoch, .. } = reply {
                epochs.push(epoch);
            }
        }
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "seed {seed}: epoch went backwards: {epochs:?}"
        );
        assert_eq!(epochs.last(), Some(&2));
        // Recovery: shard 1 restarted, answers are complete again and
        // byte-identical to the epoch-2 expectations.
        wait_until_recovered(&mut client);
        let reference = Catalog::new(store_v2(), 1);
        let mut state = seed ^ 0xFEED_FACE;
        for _ in 0..10 {
            let b = basket(&mut state);
            let expected = encode_response(&Response::ResultsV2 {
                epoch: 2,
                shards_missing: 0,
                recs: reference.query(&b, 10),
            });
            assert_eq!(client.query_v2_raw(&b, 10, 0).unwrap(), expected);
        }
        let snap = obs.metrics();
        assert_eq!(snap.counters.get("serve.fault.conn_reset"), Some(&1));
        assert_eq!(snap.counters.get("serve.fault.slow_frame"), Some(&1));
        assert_eq!(snap.counters.get("serve.shard_restarts{shard=1}"), Some(&1));
        assert_eq!(snap.counters.get("serve.swap_rejected"), Some(&1));
        assert_eq!(snap.counters.get("serve.swaps"), Some(&1));
        std::fs::remove_file(&path).ok();
        client.shutdown().unwrap();
        server.wait().unwrap();
    }
}

#[test]
fn shard_failure_in_a_batch_charges_only_the_baskets_it_carried() {
    // The [SA95] trees beside twelve standalone roots (items 8..20), so
    // each of two shards owns some root.
    let tax = {
        let mut b = TaxonomyBuilder::new(20);
        for (c, p) in [(1, 0), (2, 0), (3, 1), (4, 1), (6, 5), (7, 5)] {
            b.edge(c, p).unwrap();
        }
        b.build().unwrap()
    };
    let roots: Vec<ItemId> = (0..20)
        .map(ItemId)
        .filter(|&i| tax.root_of(i) == i)
        .collect();
    let on = |shard: usize| {
        let mut on_shard = roots.iter().filter(|&&r| shard_of(&[r], &tax, 2) == shard);
        *on_shard.next().expect("every shard owns a root")
    };
    let (r0, r1) = (on(0), on(1));
    // Two more roots to recommend, one rule per antecedent root.
    let mut others = roots.iter().copied().filter(|&r| r != r0 && r != r1);
    let (x, y) = (others.next().unwrap(), others.next().unwrap());
    let rules = vec![
        rule(
            Itemset::from_sorted(vec![r0]),
            Itemset::from_sorted(vec![x]),
            3,
            0.9,
        ),
        rule(
            Itemset::from_sorted(vec![r1]),
            Itemset::from_sorted(vec![y]),
            2,
            0.8,
        ),
    ];
    let store = || RuleStore::new(rules.clone(), tax.clone(), 6);
    let obs = Obs::enabled();
    let cfg = ServerConfig {
        shards: 2,
        deadline: Duration::from_secs(5),
        // Shard 0's first job — this batch's — panics its worker.
        faults: FaultPlan::parse("shard-panic@s0q1").unwrap(),
        ..ServerConfig::default()
    };
    let server = serve("127.0.0.1:0", store(), cfg, obs.clone()).unwrap();
    let reference = Catalog::new(store(), 1);
    let baskets = vec![vec![r0], vec![r1], vec![r0, r1]];
    let mut client = connect(&server);
    let BatchReply::Results { epoch, answers } = client.query_batch(&baskets, 10, 0).unwrap()
    else {
        panic!("an unbudgeted batch was shed");
    };
    assert_eq!(epoch, 1);
    let [on_s0, on_s1, multi] = &answers[..] else {
        panic!("expected three answers, got {answers:?}");
    };
    // The shard-1 basket never touched the dead job: complete.
    assert_eq!(on_s1.shards_missing, 0);
    assert_eq!(on_s1.recs, reference.query(&baskets[1], 10));
    assert!(!on_s1.recs.is_empty());
    // The two baskets the dead job carried each miss shard 0, and keep
    // only answers the reference also gives.
    for (answer, basket) in [(on_s0, &baskets[0]), (multi, &baskets[2])] {
        assert_eq!(answer.shards_missing, 1, "{basket:?}");
        let expected = reference.query(basket, 10);
        for rec in &answer.recs {
            assert!(expected.contains(rec), "{basket:?} invented {rec:?}");
        }
    }
    assert_eq!(multi.recs, reference.query(&baskets[1], 10));
    assert_eq!(obs.metrics().counters.get("serve.degraded"), Some(&2));
    client.shutdown().unwrap();
    server.wait().unwrap();
}
