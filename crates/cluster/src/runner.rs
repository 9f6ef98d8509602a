//! Spawning a cluster run.

use crate::collective::Collectives;
use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::node::{Envelope, NodeCtx};
use crate::stats::{NodeStats, NodeStatsSnapshot};
use crossbeam::channel::unbounded;
use gar_obs::{Obs, Stopwatch};
use gar_types::{Error, Result};
use std::sync::Arc;
use std::time::Duration;

/// Shape of the simulated machine.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shared-nothing nodes (the paper uses 4-16).
    pub num_nodes: usize,
    /// Candidate-memory budget per node in bytes (the simulated 256 MB —
    /// scaled down alongside the datasets).
    pub memory_per_node: u64,
    /// Price list for the modeled execution time.
    pub cost: CostModel,
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
    /// A cluster of `num_nodes` with a given per-node memory budget and
    /// the default SP-2 cost model (no faults, no deadline).
    pub fn new(num_nodes: usize, memory_per_node: u64) -> ClusterConfig {
        ClusterConfig {
            num_nodes,
            memory_per_node,
            cost: CostModel::default(),
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
/// the per-node counter snapshots, wall-clock, and the modeled time.
#[derive(Debug)]
pub struct ClusterRun<T> {
    /// Per-node results, indexed by node id.
    pub results: Vec<T>,
    /// Per-node counters at the end of the run.
    pub stats: Vec<NodeStatsSnapshot>,
    /// Real elapsed time of the threaded simulation on this machine.
    pub wall: Duration,
    /// Cost-model execution time (critical path over nodes).
    pub modeled_seconds: f64,
}

impl<T> ClusterRun<T> {
    /// Average bytes received per node — Table 6's row metric.
    pub fn avg_bytes_received(&self) -> f64 {
        if self.stats.is_empty() {
            return 0.0;
        }
        self.stats
            .iter()
            .map(|s| s.bytes_received as f64)
            .sum::<f64>()
            / self.stats.len() as f64
    }

    /// Per-node hash-probe counts — Figure 15's series.
    pub fn probes_per_node(&self) -> Vec<u64> {
        self.stats.iter().map(|s| s.hash_probes).collect()
    }
}

/// Postmortem of a failed cluster run: **every** node's outcome (not
/// just the first error), the per-node counter snapshots at the moment
/// of death, and the poison attribution — the raw material for degraded
/// -mode recovery and for the runner's root-cause error.
#[derive(Debug)]
pub struct ClusterFailure<T> {
    /// Per-node outcomes, indexed by node id. Nodes that completed
    /// before the failure carry `Ok`; nodes killed by a peer's failure
    /// carry [`Error::Poisoned`]; the culprit carries its own error.
    pub outcomes: Vec<Result<T>>,
    /// Per-node counters at the end of the run (including
    /// `faults_injected`).
    pub stats: Vec<NodeStatsSnapshot>,
    /// The node that poisoned the collectives first, if any did.
    pub poisoned_by: Option<usize>,
    /// Real elapsed time until the run unwound.
    pub wall: Duration,
}

impl<T> ClusterFailure<T> {
    /// The node whose *own* failure started the cascade: the first
    /// poisoner if its outcome is a non-propagated error, else the
    /// first node reporting a non-[`Error::Poisoned`] error.
    pub fn root_cause_node(&self) -> Option<usize> {
        let own_error = |node: usize| {
            matches!(
                self.outcomes.get(node),
                Some(Err(e)) if !matches!(e, Error::Poisoned { .. })
            )
        };
        self.poisoned_by
            .filter(|&p| own_error(p))
            .or_else(|| (0..self.outcomes.len()).find(|&node| own_error(node)))
    }

    /// Consumes the report, returning the root-cause error (falling back
    /// to the first error of any kind).
    pub fn into_root_cause(mut self) -> Error {
        let node = self
            .root_cause_node()
            .or_else(|| self.outcomes.iter().position(|o| o.is_err()));
        let slot = node.and_then(|i| self.outcomes.get_mut(i));
        match slot.map(|s| std::mem::replace(s, Err(Error::Protocol("outcome taken".into())))) {
            Some(Err(e)) => e,
            // root_cause_node only returns error slots, so this arm is
            // an internal inconsistency — surfaced as an error, not a
            // panic, since this runs on the postmortem path.
            Some(Ok(_)) => Error::Protocol("root cause node had an ok outcome".into()),
            None => Error::Protocol("cluster run failed with no error outcome".into()),
        }
    }
}

/// Outcome of [`Cluster::run_report`]: success with results, or a full
/// postmortem.
#[derive(Debug)]
pub enum RunOutcome<T> {
    /// Every node returned `Ok`.
    Completed(ClusterRun<T>),
    /// At least one node failed; here is everything we know.
    Failed(ClusterFailure<T>),
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
    /// error, not the [`Error::Poisoned`] its peers observed. Callers that
    /// need the full postmortem use [`Cluster::run_report`].
    pub fn run<T, F>(config: &ClusterConfig, node_fn: F) -> Result<ClusterRun<T>>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> Result<T> + Send + Sync,
    {
        match Cluster::run_report(config, node_fn)? {
            RunOutcome::Completed(run) => Ok(run),
            RunOutcome::Failed(failure) => Err(failure.into_root_cause()),
        }
    }

    /// Like [`Cluster::run`], but a failed run returns the structured
    /// [`ClusterFailure`] (every node's outcome and stats) instead of
    /// collapsing to a single error. The outer `Result` only reports
    /// configuration errors.
    pub fn run_report<T, F>(config: &ClusterConfig, node_fn: F) -> Result<RunOutcome<T>>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> Result<T> + Send + Sync,
    {
        config.validate()?;
        let n = config.num_nodes;
        let stats: Arc<Vec<NodeStats>> = Arc::new((0..n).map(|_| NodeStats::default()).collect());
        let collectives = Arc::new(Collectives::with_deadline(n, config.deadline));

        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Envelope>();
            senders.push(tx);
            receivers.push(rx);
        }

        let started = Stopwatch::start();
        let mut outcomes: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (node_id, inbox) in receivers.into_iter().enumerate() {
                let senders = senders.clone();
                let stats = Arc::clone(&stats);
                let collectives = Arc::clone(&collectives);
                let node_fn = &node_fn;
                handles.push(scope.spawn(move || {
                    let mut ctx = NodeCtx::new(
                        node_id,
                        config.memory_per_node,
                        senders,
                        inbox,
                        stats,
                        Arc::clone(&collectives),
                        config.faults.as_ref().map(|p| p.node_state(node_id)),
                        config.obs.clone(),
                    );
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        node_fn(&mut ctx)
                    }));
                    match out {
                        Ok(res) => {
                            if res.is_err() {
                                collectives.poison(node_id);
                            }
                            res
                        }
                        Err(panic) => {
                            collectives.poison(node_id);
                            let reason = panic
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "panic".into());
                            Err(Error::NodeFailure {
                                node: node_id,
                                reason,
                            })
                        }
                    }
                }));
            }
            for (node_id, (slot, h)) in outcomes.iter_mut().zip(handles).enumerate() {
                *slot = Some(h.join().unwrap_or_else(|_| {
                    Err(Error::NodeFailure {
                        node: node_id,
                        reason: "worker thread died".into(),
                    })
                }));
            }
        });
        // The original senders must drop so pending inboxes disconnect.
        drop(senders);
        let wall = started.elapsed();

        let outcomes: Vec<Result<T>> = outcomes
            .into_iter()
            .enumerate()
            .map(|(node_id, out)| {
                // Filled by the scope join loop above for every node; a
                // hole would mean the join loop itself was skipped, which
                // the postmortem reports rather than crashing the caller.
                out.unwrap_or_else(|| {
                    Err(Error::NodeFailure {
                        node: node_id,
                        reason: "node produced no outcome".into(),
                    })
                })
            })
            .collect();
        let snapshots: Vec<NodeStatsSnapshot> = stats.iter().map(NodeStats::snapshot).collect();

        if outcomes.iter().any(Result::is_err) {
            return Ok(RunOutcome::Failed(ClusterFailure {
                outcomes,
                stats: snapshots,
                poisoned_by: collectives.poisoned_by(),
                wall,
            }));
        }
        let results = outcomes.into_iter().map(Result::unwrap).collect();
        let modeled_seconds = config.cost.execution_seconds(&snapshots);
        Ok(RunOutcome::Completed(ClusterRun {
            results,
            stats: snapshots,
            wall,
            modeled_seconds,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultOp;
    use bytes::Bytes;

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
            ctx.send(to, 7, Bytes::from(vec![0u8; 100]))?;
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
        assert!(run.avg_bytes_received() == 100.0);
    }

    #[test]
    fn self_sends_are_delivered_but_uncharged() {
        let run = Cluster::run(&cfg(2), |ctx| {
            ctx.send(ctx.node_id(), 1, Bytes::from_static(b"local"))?;
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
                .then(|| Bytes::from_static(b"large-itemsets"));
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
                    ex.send(peer, 1, Bytes::from_static(b"data"))?;
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
    fn failure_postmortem_reports_every_node() {
        let outcome = Cluster::run_report(&cfg(3), |ctx| {
            if ctx.node_id() == 1 {
                return Err(Error::Protocol("injected failure".into()));
            }
            ctx.barrier()?;
            Ok(ctx.node_id())
        })
        .unwrap();
        let RunOutcome::Failed(failure) = outcome else {
            panic!("expected a failed run");
        };
        assert_eq!(failure.outcomes.len(), 3);
        assert_eq!(failure.stats.len(), 3);
        assert_eq!(failure.poisoned_by, Some(1));
        assert_eq!(failure.root_cause_node(), Some(1));
        assert!(matches!(failure.outcomes[1], Err(Error::Protocol(_))));
        for peer in [0, 2] {
            assert!(
                matches!(failure.outcomes[peer], Err(Error::Poisoned { node: 1 })),
                "peer {peer}: {:?}",
                failure.outcomes[peer]
            );
        }
        assert!(matches!(failure.into_root_cause(), Error::Protocol(_)));
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
            ctx.send(to, 7, Bytes::from_static(b"hello"))?;
            let env = ctx.recv()?;
            assert_eq!(env.payload.as_ref(), b"hello");
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
        let plan = FaultPlan::with_seed(0).schedule(0, 0, FaultOp::Drop);
        let err = Cluster::run(&cfg(2).with_faults(plan), |ctx| {
            if ctx.node_id() == 0 {
                ctx.send(1, 1, Bytes::from_static(b"first"))?;
                ctx.send(1, 1, Bytes::from_static(b"second"))?;
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
        let plan = FaultPlan::with_seed(0).schedule(0, 0, FaultOp::Corrupt);
        let err = Cluster::run(&cfg(2).with_faults(plan), |ctx| {
            if ctx.node_id() == 0 {
                ctx.send(1, 1, Bytes::from_static(b"payload"))?;
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
        .schedule(0, 2, FaultOp::Hang);
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
        let plan = FaultPlan::with_seed(0).schedule(1, 1, FaultOp::Panic);
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
    fn modeled_time_reflects_counters() {
        let run = Cluster::run(&cfg(2), |ctx| {
            ctx.stats().add_cpu(1_000_000);
            Ok(())
        })
        .unwrap();
        assert!(run.modeled_seconds > 0.0);
        assert!(run.wall > Duration::ZERO);
    }

    #[test]
    fn config_validation() {
        assert!(ClusterConfig::new(0, 1).validate().is_err());
        assert!(ClusterConfig::new(1, 0).validate().is_err());
        assert!(ClusterConfig::new(4, 1 << 20).validate().is_ok());
    }
}
