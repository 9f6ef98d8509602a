//! Randomized stress tests of the exchange protocol: arbitrary message
//! matrices must be delivered exactly, and termination must hold under
//! any interleaving of sends and polls.

// The full simulator does not exist in model-checking builds.
#![cfg(not(gar_loom))]

use gar_cluster::{Cluster, ClusterConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_sent_message_arrives_exactly_once(
        nodes in 2usize..6,
        // messages[sender] = number of messages to each peer
        per_peer in 0usize..40,
        payload_len in 0usize..100,
    ) {
        let cfg = ClusterConfig::new(nodes, 1 << 20);
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
    }

    #[test]
    fn collectives_survive_repeated_rounds(nodes in 1usize..6, rounds in 1usize..20) {
        let cfg = ClusterConfig::new(nodes, 1 << 20);
        Cluster::run(&cfg, |ctx| {
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
    }
}
