//! Spawning a cluster run.

use crate::collective::Collectives;
use crate::fault::FaultPlan;
use crate::node::{Envelope, NodeCtx};
use crate::stats::NodeStatsSnapshot;
use gar_obs::{Obs, Stopwatch};
use gar_types::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Shape of the simulated machine.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shared-nothing nodes (the paper uses 4-16).
    pub num_nodes: usize,
    /// Candidate-memory budget per node in bytes (the simulated 256 MB —
    /// scaled down alongside the datasets).
    pub memory_per_node: u64,
    /// Deterministic fault injection for this run, if any.
    pub faults: Option<FaultPlan>,
    /// Deadline on every blocking collective wait and `recv`: a node
    /// stuck longer than this poisons the run with [`Error::Timeout`]
    /// instead of deadlocking on a hung peer. `None` waits forever.
    pub deadline: Option<Duration>,
    /// Observability sink for the run. Disabled by default; when enabled
    /// every node records per-link traffic, collective ops, fault
    /// injections, and phase spans into it.
    pub obs: Obs,
}

impl ClusterConfig {
    /// A cluster of `num_nodes` with a given per-node memory budget (no
    /// faults, no deadline).
    pub fn new(num_nodes: usize, memory_per_node: u64) -> ClusterConfig {
        ClusterConfig {
            num_nodes,
            memory_per_node,
            faults: None,
            deadline: None,
            obs: Obs::disabled(),
        }
    }

    /// Attaches a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> ClusterConfig {
        self.faults = Some(plan);
        self
    }

    /// Attaches an observability sink.
    pub fn with_obs(mut self, obs: Obs) -> ClusterConfig {
        self.obs = obs;
        self
    }

    /// Attaches a deadline for blocking waits.
    pub fn with_deadline(mut self, deadline: Duration) -> ClusterConfig {
        self.deadline = Some(deadline);
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_nodes == 0 {
            return Err(Error::InvalidConfig("num_nodes must be >= 1".into()));
        }
        if self.memory_per_node == 0 {
            return Err(Error::InvalidConfig(
                "memory_per_node must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of a cluster run: the per-node return values (index = node id),
/// the per-node counter snapshots and wall-clock. Pricing the counters is
/// the caller's: a miner prices each pass's deltas, not the whole run.
#[derive(Debug)]
pub struct ClusterRun<T> {
    /// Per-node results, indexed by node id.
    pub results: Vec<T>,
    /// Per-node counters at the end of the run.
    pub stats: Vec<NodeStatsSnapshot>,
    /// Real elapsed time of the threaded simulation on this machine.
    pub wall: Duration,
}

/// The error that started a failed run's cascade: the first poisoner's
/// own error if it has one, else the first error that is not the
/// [`Error::Poisoned`] a peer observed, else the first error of any kind.
fn root_cause<T>(outcomes: Vec<Result<T>>, poisoned_by: Option<usize>) -> Error {
    let own_error = |node: &usize| {
        matches!(
            outcomes.get(*node),
            Some(Err(e)) if !matches!(e, Error::Poisoned { .. })
        )
    };
    let node = poisoned_by
        .filter(own_error)
        .or_else(|| (0..outcomes.len()).find(own_error))
        .or_else(|| outcomes.iter().position(Result::is_err));
    match node.and_then(|i| outcomes.into_iter().nth(i)) {
        Some(Err(e)) => e,
        _ => Error::Protocol("cluster run failed with no error outcome".into()),
    }
}

/// The simulated shared-nothing machine.
pub struct Cluster;

impl Cluster {
    /// Runs `node_fn` once per node, each on its own OS thread, wired
    /// through counted channels and shared collectives. Returns when every
    /// node completes; a panicking or erroring node poisons the
    /// collectives so its peers fail fast rather than deadlock.
    ///
    /// On failure the error is the **root cause**: the failing node's own
    /// error, not the [`Error::Poisoned`] its peers observed.
    pub fn run<T, F>(config: &ClusterConfig, node_fn: F) -> Result<ClusterRun<T>>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> Result<T> + Send + Sync,
    {
        config.validate()?;
        let n = config.num_nodes;
        let collectives = Arc::new(Collectives::with_deadline(n, config.deadline));

        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<Envelope>();
            senders.push(tx);
            receivers.push(rx);
        }

        let started = Stopwatch::start();
        // Each node thread hands back its result and its own ledger.
        let (outcomes, stats): (Vec<Result<T>>, Vec<NodeStatsSnapshot>) =
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(n);
                for (node, inbox) in receivers.into_iter().enumerate() {
                    let senders = senders.clone();
                    let collectives = Arc::clone(&collectives);
                    let node_fn = &node_fn;
                    handles.push(scope.spawn(move || {
                        let mut ctx = NodeCtx::new(
                            node,
                            config.memory_per_node,
                            senders,
                            inbox,
                            Arc::clone(&collectives),
                            config.faults.as_ref().map(|p| p.node_state(node)),
                            config.obs.clone(),
                        );
                        let res = catch_unwind(AssertUnwindSafe(|| node_fn(&mut ctx)))
                            .unwrap_or_else(|panic| {
                                let reason = panic
                                    .downcast_ref::<String>()
                                    .cloned()
                                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                                    .unwrap_or_else(|| "panic".into());
                                Err(Error::NodeFailure { node, reason })
                            });
                        if res.is_err() {
                            collectives.poison(node);
                        }
                        (res, ctx.ledger())
                    }));
                }
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(node, h)| {
                        h.join().unwrap_or_else(|_| {
                            let reason = "worker thread died".into();
                            (
                                Err(Error::NodeFailure { node, reason }),
                                NodeStatsSnapshot::default(),
                            )
                        })
                    })
                    .unzip()
            });
        // The original senders must drop so pending inboxes disconnect.
        drop(senders);
        let wall = started.elapsed();

        if outcomes.iter().any(Result::is_err) {
            return Err(root_cause(outcomes, collectives.poisoned_by()));
        }
        Ok(ClusterRun {
            results: outcomes.into_iter().flatten().collect(),
            stats,
            wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultOp;

    fn cfg(n: usize) -> ClusterConfig {
        ClusterConfig::new(n, 1 << 20)
    }

    #[test]
    fn nodes_get_distinct_ids_and_results_are_ordered() {
        let run = Cluster::run(&cfg(4), |ctx| Ok(ctx.node_id() * 10)).unwrap();
        assert_eq!(run.results, vec![0, 10, 20, 30]);
        assert_eq!(run.stats.len(), 4);
    }

    #[test]
    fn point_to_point_messaging_is_counted() {
        // Ring: node i sends 100 bytes to node (i+1) % n.
        let run = Cluster::run(&cfg(3), |ctx| {
            let to = (ctx.node_id() + 1) % ctx.num_nodes();
            ctx.send(to, 7, Arc::from(vec![0u8; 100]))?;
            let env = ctx.recv()?;
            assert_eq!(env.tag, 7);
            assert_eq!(env.payload.len(), 100);
            Ok(())
        })
        .unwrap();
        for s in &run.stats {
            assert_eq!(s.messages_sent, 1);
            assert_eq!(s.bytes_sent, 100);
            assert_eq!(s.messages_received, 1);
            assert_eq!(s.bytes_received, 100);
        }
    }

    #[test]
    fn self_sends_are_delivered_but_uncharged() {
        let run = Cluster::run(&cfg(2), |ctx| {
            ctx.send(ctx.node_id(), 1, Arc::from(&b"local"[..]))?;
            let env = ctx.recv()?;
            assert_eq!(env.from, ctx.node_id());
            Ok(())
        })
        .unwrap();
        for s in &run.stats {
            assert_eq!(s.messages_sent, 0);
            assert_eq!(s.bytes_received, 0);
        }
    }

    #[test]
    fn all_reduce_matches_and_charges_both_directions() {
        let run = Cluster::run(&cfg(4), |ctx| {
            let v = ctx.all_reduce_u64(&[ctx.node_id() as u64 + 1])?;
            Ok(v[0])
        })
        .unwrap();
        assert_eq!(run.results, vec![10, 10, 10, 10]);
        // Binomial tree over 4 nodes rooted at 0:
        //   node 0 has children {1, 2}: 2 sends + 2 receives each way;
        //   node 2 has child {3} plus its parent: 2 and 2;
        //   leaves 1 and 3: 1 send up + 1 receive down.
        assert_eq!(run.stats[0].bytes_sent, 16);
        assert_eq!(run.stats[0].bytes_received, 16);
        assert_eq!(run.stats[1].bytes_sent, 8);
        assert_eq!(run.stats[1].bytes_received, 8);
        assert_eq!(run.stats[2].bytes_sent, 16);
        assert_eq!(run.stats[2].bytes_received, 16);
        assert_eq!(run.stats[3].bytes_sent, 8);
        assert_eq!(run.stats[3].bytes_received, 8);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let run = Cluster::run(&cfg(3), |ctx| {
            let data = ctx
                .is_coordinator()
                .then(|| Arc::from(&b"large-itemsets"[..]));
            let got = ctx.broadcast(data)?;
            Ok(got.len())
        })
        .unwrap();
        assert_eq!(run.results, vec![14, 14, 14]);
        assert_eq!(run.stats[0].messages_sent, 2);
        assert_eq!(run.stats[1].bytes_received, 14);
    }

    #[test]
    fn exchange_phase_terminates_and_delivers() {
        // Every node sends one message to every other node.
        let run = Cluster::run(&cfg(4), |ctx| {
            let mut got = 0usize;
            let mut ex = ctx.exchange();
            for peer in 0..ctx.num_nodes() {
                if peer != ctx.node_id() {
                    ex.send(peer, 1, Arc::from(&b"data"[..]))?;
                }
            }
            ex.poll(|_| {
                got += 1;
                Ok(())
            })?;
            ex.finish(|_| {
                got += 1;
                Ok(())
            })?;
            Ok(got)
        })
        .unwrap();
        assert_eq!(run.results, vec![3, 3, 3, 3]);
    }

    #[test]
    fn node_error_fails_the_run_without_deadlock() {
        let err = Cluster::run(&cfg(3), |ctx| {
            if ctx.node_id() == 1 {
                return Err(Error::Protocol("injected failure".into()));
            }
            // Peers head into a collective that node 1 will never join.
            ctx.barrier()?;
            Ok(())
        })
        .unwrap_err();
        // The run reports the *root cause* — node 1's own error — not the
        // Error::Poisoned its peers observed.
        assert!(
            matches!(err, Error::Protocol(ref m) if m == "injected failure"),
            "expected node 1's own error, got: {err}"
        );
    }

    #[test]
    fn mismatched_collectives_are_a_protocol_error() {
        // Node 0 enters a barrier, node 1 an all-reduce: the second to
        // arrive names both ops instead of waiting out the deadline.
        let err = Cluster::run(&cfg(2).with_deadline(Duration::from_secs(2)), |ctx| {
            if ctx.node_id() == 0 {
                ctx.barrier()
            } else {
                ctx.all_reduce_u64(&[1]).map(|_| ())
            }
        })
        .unwrap_err();
        assert!(
            matches!(err, Error::Protocol(ref m) if m.contains("barrier") && m.contains("all_reduce")),
            "{err}"
        );
    }

    #[test]
    fn root_cause_is_the_poisoners_own_error_else_the_first_unpoisoned() {
        let failed = |node: usize| Err::<(), _>(Error::Protocol(format!("node {node} failed")));
        let echo = |poisoner: usize| Err::<(), _>(Error::Poisoned { node: poisoner });
        let cause = |outcomes, poisoned_by| root_cause(outcomes, poisoned_by).to_string();
        // The poisoner's own error wins over an earlier node's own error
        // and over its peers' echoes.
        assert!(cause(vec![failed(0), failed(1), echo(1)], Some(1)).contains("node 1 failed"));
        // A poisoner whose own outcome is an echo or a success is passed
        // over for the first node that failed on its own.
        assert!(cause(vec![Ok(()), echo(2), failed(2)], Some(1)).contains("node 2 failed"));
        assert!(cause(vec![Ok(()), failed(1)], Some(0)).contains("node 1 failed"));
        // Nothing but echoes: the first of them.
        let err = root_cause(vec![Ok(()), echo(2), echo(0)], None);
        assert!(matches!(err, Error::Poisoned { node: 2 }), "{err}");
    }

    #[test]
    fn duplicated_and_delayed_messages_are_tolerated() {
        let plan = FaultPlan {
            p_dup: 1.0,
            p_delay: 1.0,
            delay: Duration::from_millis(1),
            ..FaultPlan::with_seed(3)
        };
        let run = Cluster::run(&cfg(2).with_faults(plan), |ctx| {
            let to = (ctx.node_id() + 1) % 2;
            ctx.send(to, 7, Arc::from(&b"hello"[..]))?;
            let env = ctx.recv()?;
            assert_eq!(env.payload.as_ref(), b"hello");
            // Both copies are queued once every send has returned; without
            // the barrier a peer could exit before the duplicate arrives.
            ctx.barrier()?;
            // The duplicate copy is absorbed, not delivered twice.
            assert!(ctx.try_recv()?.is_none());
            Ok(())
        })
        .unwrap();
        for s in &run.stats {
            assert!(s.faults_injected >= 2, "dup + delay should be counted");
            assert_eq!(s.messages_received, 1, "ledger charges one delivery");
        }
    }

    #[test]
    fn dropped_message_is_detected_as_loss() {
        // Node 0's first send is dropped; its second arrives with a
        // sequence gap, which the receiver reports against the sender.
        let plan = FaultPlan::with_seed(0).schedule(FaultOp::Drop, [0, 0]);
        let err = Cluster::run(&cfg(2).with_faults(plan), |ctx| {
            if ctx.node_id() == 0 {
                ctx.send(1, 1, Arc::from(&b"first"[..]))?;
                ctx.send(1, 1, Arc::from(&b"second"[..]))?;
                Ok(())
            } else {
                ctx.recv()?;
                Ok(())
            }
        })
        .unwrap_err();
        assert!(
            matches!(err, Error::NodeFailure { node: 0, ref reason } if reason.contains("loss")),
            "{err}"
        );
    }

    #[test]
    fn corrupted_message_is_detected_by_checksum() {
        let plan = FaultPlan::with_seed(0).schedule(FaultOp::Corrupt, [0, 0]);
        let err = Cluster::run(&cfg(2).with_faults(plan), |ctx| {
            if ctx.node_id() == 0 {
                ctx.send(1, 1, Arc::from(&b"payload"[..]))?;
            } else {
                ctx.recv()?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn recv_deadline_detects_a_silent_peer() {
        let started = Stopwatch::start();
        let err = Cluster::run(&cfg(2).with_deadline(Duration::from_millis(100)), |ctx| {
            if ctx.node_id() == 1 {
                // Node 0 never sends: without a deadline this would hang.
                ctx.recv()?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(err, Error::Timeout { node: 1, ref op } if op == "recv"),
            "{err}"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn hung_node_is_detected_by_peer_deadline() {
        let plan = FaultPlan {
            hang: Duration::from_millis(400),
            ..FaultPlan::with_seed(0)
        }
        .schedule(FaultOp::Hang, [0, 2]);
        let config = cfg(2)
            .with_faults(plan)
            .with_deadline(Duration::from_millis(80));
        let started = Stopwatch::start();
        let err = Cluster::run(&config, |ctx| {
            ctx.set_pass(2); // node 0 hangs here
            ctx.barrier()?;
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(err, Error::Timeout { node: 1, ref op } if op == "barrier"),
            "{err}"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn scheduled_panic_yields_node_failure_root_cause() {
        let plan = FaultPlan::with_seed(0).schedule(FaultOp::Panic, [1, 1]);
        let err = Cluster::run(&cfg(3).with_faults(plan), |ctx| {
            ctx.set_pass(1);
            ctx.barrier()?;
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(err, Error::NodeFailure { node: 1, ref reason } if reason.contains("injected panic")),
            "{err}"
        );
    }

    #[test]
    fn node_panic_is_contained() {
        let err = Cluster::run::<(), _>(&cfg(2), |ctx| {
            if ctx.node_id() == 0 {
                panic!("boom");
            }
            ctx.barrier()?;
            Ok(())
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("boom") || err.to_string().contains("poisoned"),
            "{err}"
        );
    }

    #[test]
    fn each_node_hands_back_its_own_ledger() {
        let run = Cluster::run(&cfg(2), |ctx| {
            ctx.add_cpu(3);
            ctx.add_probes(7 + ctx.node_id() as u64);
            ctx.charge_scan(5, 4096);
            Ok(ctx.ledger())
        })
        .unwrap();
        for (n, s) in run.stats.iter().enumerate() {
            assert_eq!(
                *s, run.results[n],
                "node {n}: the ledger it saw is the one returned"
            );
            assert_eq!(s.hash_probes, 7 + n as u64);
            assert_eq!((s.cpu_ticks, s.io_bytes, s.scan_passes), (3, 4096, 1));
        }
    }

    #[test]
    fn modeled_time_reflects_counters() {
        let run = Cluster::run(&cfg(2), |ctx| {
            ctx.add_cpu(1_000_000);
            Ok(())
        })
        .unwrap();
        assert_eq!(run.stats[0].cpu_ticks, 1_000_000);
        assert!(crate::CostModel::default().execution_seconds(&run.stats) > 0.0);
        assert!(run.wall > Duration::ZERO);
    }

    #[test]
    fn config_validation() {
        assert!(ClusterConfig::new(0, 1).validate().is_err());
        assert!(ClusterConfig::new(1, 0).validate().is_err());
        assert!(ClusterConfig::new(4, 1 << 20).validate().is_ok());
    }
}
