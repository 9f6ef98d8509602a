//! Randomized stress tests of the exchange protocol: arbitrary message
//! matrices must be delivered exactly, and termination must hold under
//! any interleaving of sends and polls. Both runs are observed, and the
//! obs series must reconcile with the ledgers: these are the only
//! reconciliation checks that belong to the cluster layer (every other
//! mirror is charged by the same `NodeCtx` call as its ledger field).

use gar_cluster::{Cluster, ClusterConfig, NodeStatsSnapshot};
use gar_obs::{MetricsSnapshot, Obs};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Link conservation — what node `a` records as sent to `b` is exactly
/// what `b` records as received from `a` — and ledger agreement: each
/// node's ledger is its per-link `cluster.*` sums plus its modeled
/// `collective.*` traffic.
fn reconciles(m: &MetricsSnapshot, stats: &[NodeStatsSnapshot]) -> Result<(), TestCaseError> {
    let nodes = stats.len();
    for a in 0..nodes {
        for b in 0..nodes {
            for what in ["messages", "bytes"] {
                let sent = m.counter(&format!("cluster.{what}_sent{{node={a},peer={b}}}"));
                let recv = m.counter(&format!("cluster.{what}_received{{node={b},peer={a}}}"));
                prop_assert!(
                    sent == recv,
                    "{what} {a}->{b}: sent {sent}, received {recv}"
                );
            }
        }
    }
    for (n, ledger) in stats.iter().enumerate() {
        for (what, total) in [
            ("messages_sent", ledger.messages_sent),
            ("bytes_sent", ledger.bytes_sent),
            ("messages_received", ledger.messages_received),
            ("bytes_received", ledger.bytes_received),
        ] {
            let links = m.sum_prefix(&format!("cluster.{what}{{node={n},peer="));
            let coll = m.counter(&format!("collective.{what}{{node={n}}}"));
            prop_assert!(
                links + coll == total,
                "node {n} {what}: links {links} + collective {coll} != ledger {total}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_sent_message_arrives_exactly_once(
        nodes in 2usize..6,
        // messages[sender] = number of messages to each peer
        per_peer in 0usize..40,
        payload_len in 0usize..100,
    ) {
        let obs = Obs::enabled();
        let cfg = ClusterConfig::new(nodes, 1 << 20).with_obs(obs.clone());
        let received = AtomicU64::new(0);
        let sum = AtomicU64::new(0);
        let run = Cluster::run(&cfg, |ctx| {
            let mut ex = ctx.exchange();
            for peer in 0..ctx.num_nodes() {
                if peer == ctx.node_id() {
                    continue;
                }
                for i in 0..per_peer {
                    let body = vec![(i % 251) as u8; payload_len];
                    ex.send(peer, 1, Arc::from(body))?;
                    if i % 7 == 0 {
                        ex.poll(|env| {
                            received.fetch_add(1, Ordering::Relaxed);
                            sum.fetch_add(env.payload.len() as u64, Ordering::Relaxed);
                            Ok(())
                        })?;
                    }
                }
            }
            ex.finish(|env| {
                received.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(env.payload.len() as u64, Ordering::Relaxed);
                Ok(())
            })?;
            Ok(())
        }).unwrap();

        let expected = (nodes * (nodes - 1) * per_peer) as u64;
        prop_assert_eq!(received.load(Ordering::Relaxed), expected);
        prop_assert_eq!(sum.load(Ordering::Relaxed), expected * payload_len as u64);
        // The ledgers agree with the ground truth.
        let total_recv_msgs: u64 = run.stats.iter().map(|s| s.messages_received).sum();
        // EOS tokens: every node sends one to each peer.
        prop_assert_eq!(total_recv_msgs, expected + (nodes * (nodes - 1)) as u64);
        reconciles(&obs.metrics(), &run.stats)?;
    }

    #[test]
    fn collectives_survive_repeated_rounds(nodes in 1usize..6, rounds in 1usize..20) {
        let obs = Obs::enabled();
        let cfg = ClusterConfig::new(nodes, 1 << 20).with_obs(obs.clone());
        let run = Cluster::run(&cfg, |ctx| {
            for r in 0..rounds {
                let v = ctx.all_reduce_u64(&[1, r as u64])?;
                assert_eq!(v[0], ctx.num_nodes() as u64);
                assert_eq!(v[1], (r * ctx.num_nodes()) as u64);
                ctx.barrier()?;
                let data = ctx
                    .is_coordinator()
                    .then(|| Arc::from(vec![r as u8; 3]));
                let b = ctx.broadcast(data)?;
                assert_eq!(&b[..], &[r as u8; 3]);
            }
            Ok(())
        }).unwrap();
        reconciles(&obs.metrics(), &run.stats)?;
    }
}
