//! End-to-end serving over real loopback TCP: a known hierarchy, a
//! running sharded server, and a client — answers must match the
//! in-process engine exactly, taxonomy-ancestor matches included, a
//! hostile frame must not take the server down, reloads must hot-swap
//! epochs without dropping queries, and old-version frames must get a
//! typed mismatch answer rather than a hangup.

// What this suite drives does not exist in model-checking builds.
#![cfg(not(gar_loom))]

use gar_cluster::{FaultPlan, RetryPolicy};
use gar_mining::rules::Rule;
use gar_obs::Obs;
use gar_serve::{serve, Catalog, Client, QueryReply, RuleStore, ServerConfig};
use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
use gar_types::{iset, ItemId, Itemset};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The [SA95] hierarchy: clothes(0) → outerwear(1) → {jackets(3),
/// ski pants(4)}; clothes(0) → shirts(2); footwear(5) → {shoes(6),
/// boots(7)}.
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

fn fixture_rules() -> Vec<Rule> {
    vec![
        // The paper's flagship example: outerwear ⇒ hiking boots.
        rule(iset![1], iset![7], 2, 2.0 / 3.0),
        rule(iset![3], iset![2], 3, 0.9),
        rule(iset![7], iset![1], 2, 1.0),
        rule(iset![2], iset![6], 1, 0.4),
        rule(iset![4], iset![7], 1, 0.5),
    ]
}

fn fixture_store() -> RuleStore {
    RuleStore::new(fixture_rules(), sa95_taxonomy(), 6)
}

/// A second-generation rule set so a reload has observable effects.
fn refreshed_store() -> RuleStore {
    let rules = vec![
        rule(iset![1], iset![7], 4, 0.8),
        rule(iset![2], iset![3], 2, 0.6),
    ];
    RuleStore::new(rules, sa95_taxonomy(), 8)
}

/// A unique scratch path under the OS temp dir.
fn scratch_path(name: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("gar-serve-e2e-{}-{seq}-{name}", std::process::id()))
}

fn start(shards: usize, obs: Obs) -> gar_serve::Server {
    let cfg = ServerConfig {
        shards,
        deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    serve("127.0.0.1:0", fixture_store(), cfg, obs).unwrap()
}

fn connect(server: &gar_serve::Server) -> Client {
    Client::connect(
        &server.local_addr().to_string(),
        Some(Duration::from_secs(5)),
        &RetryPolicy::default(),
    )
    .unwrap()
}

#[test]
fn served_answers_match_the_in_process_engine() {
    let obs = Obs::disabled();
    let server = start(2, obs.clone());
    let reference = Catalog::new(fixture_store(), 1);
    let mut client = connect(&server);
    let baskets: Vec<Vec<ItemId>> = vec![
        vec![ItemId(3)],
        vec![ItemId(7)],
        vec![ItemId(2), ItemId(4)],
        vec![ItemId(3), ItemId(6)],
        vec![ItemId(0)], // an interior category, no rule mentions it
    ];
    for basket in &baskets {
        assert_eq!(
            client.query(basket, 10).unwrap(),
            reference.query(basket, 10),
            "basket {basket:?}"
        );
    }
    client.shutdown().unwrap();
    server.wait().unwrap();
    let snap = obs.metrics();
    assert!(snap.counters.is_empty() && snap.histograms.is_empty());
}

#[test]
fn ancestor_match_is_served_over_the_wire() {
    let server = start(1, Obs::disabled());
    let mut client = connect(&server);
    // jackets(3) alone: "outerwear ⇒ hiking boots" fires through the
    // ancestor, so boots(7) must appear among the recommendations.
    let recs = client.query(&[ItemId(3)], 10).unwrap();
    assert!(
        recs.iter().any(|r| r.consequent == iset![7]),
        "no ancestor-driven recommendation in {recs:?}"
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn per_shard_metrics_are_recorded() {
    let obs = Obs::enabled();
    let server = start(2, obs.clone());
    let mut client = connect(&server);
    // Multi-root baskets (clothes + footwear roots) broadcast to every
    // shard; the single-root basket routes to exactly one.
    for basket in [
        vec![ItemId(3), ItemId(7)],
        vec![ItemId(2), ItemId(6)],
        vec![ItemId(4), ItemId(5)],
    ] {
        client.query(&basket, 5).unwrap();
    }
    client.query(&[ItemId(3)], 5).unwrap();
    client.shutdown().unwrap();
    server.wait().unwrap();
    let snap = obs.metrics();
    let mut scored = 0;
    for shard in 0..2 {
        let key = format!("serve.queries{{shard={shard}}}");
        let n = snap.counters.get(&key).copied().unwrap_or(0);
        assert!(n >= 3, "shard {shard} missed broadcasts: {snap:?}");
        scored += n;
    }
    // 3 broadcasts × 2 shards + 1 single-root dispatch.
    assert_eq!(scored, 7, "{snap:?}");
    assert_eq!(snap.counters.get("serve.requests"), Some(&4));
    assert_eq!(snap.counters.get("serve.baskets"), Some(&4));
    assert_eq!(snap.counters.get("serve.routed.fanout"), Some(&3));
    assert_eq!(snap.counters.get("serve.routed.single"), Some(&1));
    assert!(snap.histograms.contains_key("serve.latency_us"));
    assert!(snap.histograms.contains_key("serve.shard_us{shard=0}"));
    // The index walk, summed over shards: {3,7} scans the postings of
    // 1, 3 and 7 and matches 3⇒2; {2,6} scans 2's and matches nothing
    // (6 is held); {4,5} and {3} scan two each and match both.
    assert_eq!(snap.sum_prefix("serve.index.postings_scanned"), 8);
    assert_eq!(snap.sum_prefix("serve.engine.matched"), 5);
    // The trace has one `query` span lane per shard.
    let trace = obs.chrome_trace_json();
    assert!(trace.contains("\"query\""), "{trace}");
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "a hand-made frame needs a raw socket"
)]
fn oversize_frame_gets_an_error_and_the_server_survives() {
    let server = start(1, Obs::disabled());
    // A raw socket claiming a 1 GiB frame: the server must refuse it
    // (error frame, connection dropped) without crashing or allocating.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 32]).unwrap();
    let resp = gar_serve::protocol::read_frame(&mut raw).unwrap();
    let decoded = gar_serve::protocol::decode_response(&resp.unwrap()).unwrap();
    assert!(
        matches!(decoded, gar_serve::protocol::Response::Error(_)),
        "{decoded:?}"
    );
    drop(raw);

    // Garbage that fails the frame checksum is refused the same way.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&8u32.to_le_bytes()).unwrap();
    raw.write_all(&[0xAB; 16]).unwrap();
    let resp = gar_serve::protocol::read_frame(&mut raw).unwrap();
    assert!(resp.is_some());
    drop(raw);

    // The server is still alive and correct afterwards.
    let mut client = connect(&server);
    assert!(!client.query(&[ItemId(3)], 5).unwrap().is_empty());
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn reload_hot_swaps_the_epoch_and_answers_change() {
    let server = start(2, Obs::disabled());
    let mut client = connect(&server);
    let basket = [ItemId(3)];

    // Epoch 1: the original rules answer, stamped with their epoch.
    let reply = client.query_v2(&basket, 10, 0).unwrap();
    let reference_v1 = Catalog::new(fixture_store(), 1);
    assert_eq!(
        reply,
        QueryReply::Results {
            epoch: 1,
            shards_missing: 0,
            recs: reference_v1.query(&basket, 10),
        }
    );

    // Hot-swap in the refreshed store.
    let path = scratch_path("refresh.grul");
    refreshed_store().save(&path).unwrap();
    let epoch = client.reload(&path.to_string_lossy()).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(server.epoch(), 2);

    // Epoch 2: the refreshed rules answer on the same connection.
    let reply = client.query_v2(&basket, 10, 0).unwrap();
    let reference_v2 = Catalog::new(refreshed_store(), 1);
    assert_eq!(
        reply,
        QueryReply::Results {
            epoch: 2,
            shards_missing: 0,
            recs: reference_v2.query(&basket, 10),
        }
    );
    // v1 queries keep working after the swap.
    assert_eq!(
        client.query(&basket, 10).unwrap(),
        reference_v2.query(&basket, 10)
    );
    std::fs::remove_file(&path).ok();
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn corrupt_reload_is_rejected_while_the_old_epoch_serves() {
    let obs = Obs::enabled();
    let server = start(1, obs.clone());
    let mut client = connect(&server);
    let basket = [ItemId(3)];
    let reference = Catalog::new(fixture_store(), 1);

    // Write a refreshed store, then flip one byte mid-file.
    let path = scratch_path("torn.grul");
    refreshed_store().save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let err = client.reload(&path.to_string_lossy()).unwrap_err();
    assert!(
        err.to_string().contains("reload rejected"),
        "unexpected reload error: {err}"
    );
    // The old epoch keeps answering, proven by the epoch tag.
    let reply = client.query_v2(&basket, 10, 0).unwrap();
    assert_eq!(
        reply,
        QueryReply::Results {
            epoch: 1,
            shards_missing: 0,
            recs: reference.query(&basket, 10),
        }
    );
    // A missing file is rejected the same way.
    let err = client.reload("/nonexistent/rules.grul").unwrap_err();
    assert!(err.to_string().contains("reload rejected"), "{err}");
    assert_eq!(server.epoch(), 1);
    let snap = obs.metrics();
    assert_eq!(snap.counters.get("serve.swap_rejected"), Some(&2));
    assert!(!snap.counters.contains_key("serve.swaps"));
    std::fs::remove_file(&path).ok();
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "a hand-made frame needs a raw socket"
)]
fn version_mismatch_is_typed_and_the_connection_survives() {
    use gar_serve::protocol::{
        decode_response, encode_request, read_frame, write_frame, Request, Response,
        PROTOCOL_VERSION,
    };
    let server = start(1, Obs::disabled());
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // A v2 frame from the future: version 9.
    let req = encode_request(&Request::QueryV2 {
        version: 9,
        basket: vec![ItemId(3)],
        top_k: 5,
        budget_ms: 0,
    });
    write_frame(&mut raw, &req).unwrap();
    let payload = read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(
        decode_response(&payload).unwrap(),
        Response::VersionMismatch {
            server: PROTOCOL_VERSION,
            client: 9,
        }
    );
    // The connection stays open and protocol-consistent: a v1 query on
    // the same socket still answers.
    let req = encode_request(&Request::Query {
        basket: vec![ItemId(3)],
        top_k: 5,
    });
    write_frame(&mut raw, &req).unwrap();
    let payload = read_frame(&mut raw).unwrap().unwrap();
    assert!(matches!(
        decode_response(&payload).unwrap(),
        Response::Results(recs) if !recs.is_empty()
    ));
    drop(raw);
    server.shutdown();
    server.wait().unwrap();
}

#[test]
fn client_transparently_retries_after_a_connection_reset() {
    let obs = Obs::enabled();
    let cfg = ServerConfig {
        shards: 2,
        faults: FaultPlan::parse("conn-reset@c0").unwrap(),
        ..ServerConfig::default()
    };
    let server = serve("127.0.0.1:0", fixture_store(), cfg, obs.clone()).unwrap();
    let mut client = connect(&server);
    // The first connection is reset right after the request is read;
    // the client must reconnect and retry without surfacing an error.
    let recs = client.query(&[ItemId(3)], 10).unwrap();
    let reference = Catalog::new(fixture_store(), 1);
    assert_eq!(recs, reference.query(&[ItemId(3)], 10));
    assert_eq!(
        obs.metrics().counters.get("serve.fault.conn_reset"),
        Some(&1)
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn slow_frame_writes_are_reassembled_by_the_client() {
    let obs = Obs::enabled();
    let cfg = ServerConfig {
        shards: 1,
        faults: FaultPlan::parse("slow-frame@c0,delay-ms=1").unwrap(),
        ..ServerConfig::default()
    };
    let server = serve("127.0.0.1:0", fixture_store(), cfg, obs.clone()).unwrap();
    let mut client = connect(&server);
    // The response frame dribbles out in 3-byte chunks; the framed
    // reader must reassemble it into the exact same answer.
    let recs = client.query(&[ItemId(3)], 10).unwrap();
    let reference = Catalog::new(fixture_store(), 1);
    assert_eq!(recs, reference.query(&[ItemId(3)], 10));
    assert_eq!(
        obs.metrics().counters.get("serve.fault.slow_frame"),
        Some(&1)
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn shutdown_via_server_handle_unblocks_wait() {
    let server = start(3, Obs::disabled());
    let mut client = connect(&server);
    client.query(&[ItemId(3)], 5).unwrap();
    drop(client);
    server.shutdown();
    server.wait().unwrap();
}
