//! The sharded, supervised, hot-swappable query server — built around a
//! single non-blocking readiness event loop.
//!
//! Topology: **one** event-loop thread owns the listener, every
//! connection, and all protocol state; one **supervisor** thread per
//! shard owns that shard's bounded job queue exactly as before (publish
//! a fresh sender, run the worker under `catch_unwind`, clear the slot
//! and restart with backoff on a panic). The per-connection handler
//! threads of the previous design are gone: sockets are non-blocking,
//! readiness comes from the hand-rolled [`crate::netpoll`] `poll(2)`
//! shim, and partial frames reassemble in [`FrameBuffer`] (the codec
//! file, so clippy's `disallowed_methods` still sees every stream read
//! in one place). Shard workers hand finished jobs back over an mpsc
//! completion channel and nudge the loop through a loopback waker
//! socket pair (coalesced by an atomic flag).
//!
//! Requests **pipeline**: a connection may send any number of frames
//! without waiting; responses are queued per connection in request
//! order, so concurrent queries on one socket never reorder. Every
//! request reserves its response slot the moment its frame arrives, and
//! every outcome — answered, shed at admission, shed on a full queue,
//! timed out, or answered at once (errors, acks, version mismatches) —
//! leaves through one exit that frames the response, fills the slot,
//! counts a shed (`serve.shed`) and a query's `serve.latency_us`, and
//! pumps the socket. A shard job carries the indices of the baskets it
//! scores, and its guard posts them back if the job dies, so a failure
//! charges `shards_missing` to exactly those baskets.
//!
//! Routing: rules are placed by the root-item hash of their
//! **antecedent**, so a basket whose (known) items share one root —
//! which generalization can never change — can only match rules on that
//! one shard ([`Catalog::route`]). Single-root baskets therefore
//! dispatch exactly one job; fan-out is reserved for multi-root
//! baskets. Batched requests (`QueryBatch`) group their baskets by
//! routed shard into **one job per (request, shard)**, amortizing queue
//! and wake overhead across the whole batch.
//!
//! Rule refresh: the catalog lives in an [`EpochCell`]. A request takes
//! one snapshot and every job carries it, so a query observes exactly
//! one epoch end to end; `Reload` builds and validates the replacement
//! outside the lock and swaps it as `epoch + 1` while in-flight
//! queries drain on their snapshots. A rejected reload (missing file,
//! checksum, ordering) leaves the old epoch serving.
//!
//! Overload: shard queues are bounded ([`ServerConfig::queue_depth`]).
//! A full queue — or a deadline budget the backlog cannot meet
//! (`(backlog + jobs) × EST_JOB_MS > budget_ms`) — sheds the whole
//! request *before* shard work with the typed retryable
//! `Response::Overloaded`.
//!
//! Fault injection: the serving ops of a [`gar_cluster::FaultPlan`]
//! (`conn-reset@cN`, `slow-frame@cN`, `shard-panic@sNqM`,
//! `shard-stall@sNqM`, `stale-swap@rN`) are taken with
//! `FaultPlan::take(op, at)` at the connection / shard-job / reload
//! points; the shard fault `q` coordinate counts **jobs**, so a batch
//! is one unit exactly like a single query.
//!
//! Observability: everything the thread-per-connection server recorded
//! (`serve.requests/queries/hits/misses/shard_us/latency_us/errors/
//! deadline_exceeded/shed/degraded/swaps/swap_rejected/shard_restarts/
//! version_mismatch/fault.*`) plus `serve.baskets` and
//! `serve.routed.{single,fanout,empty}`.
//!
//! Shutdown: a `Shutdown` frame (or [`Server::shutdown`]) flips the
//! shared `running` flag (the handle also nudges the waker); the loop
//! stops accepting and reading, drains in-flight requests and output
//! buffers, and exits. [`Server::wait`] joins the loop, retires the
//! shard senders so workers drain, and joins the supervisors.

#![expect(
    clippy::disallowed_types,
    reason = "gar-serve is where sockets live; frames go through the protocol codec"
)]

use crate::engine::{Catalog, Match, Route};
use crate::epoch::{Epoch, EpochCell};
use crate::netpoll::{Interest, Poller, Readiness};
use crate::protocol::{
    decode_request, drain_ready, encode_response, write_frame, BatchAnswer, FillStatus,
    FrameBuffer, Request, Response, PROTOCOL_VERSION,
};
use crate::shim::Mutex;
use crate::store::RuleStore;
use gar_cluster::{FaultOp, FaultPlan};
use gar_obs::{Obs, Stopwatch};
use gar_types::{Error, ItemId, Result};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on one poll tick while idle; the loop re-checks the
/// shutdown flag at least this often.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Rough per-job cost used by deadline-budget admission: a request whose
/// `budget_ms` cannot cover `(backlog + jobs) × EST_JOB_MS` is shed
/// instead of queued.
const EST_JOB_MS: u64 = 1;

/// Backoff suggested to shed clients.
const RETRY_AFTER_MS: u32 = 25;

/// How many times a crashed shard worker is restarted before the shard
/// is left down (answers stay degraded).
const MAX_RESTARTS: usize = 8;

/// Base of the supervisor's linear restart backoff (sleep before restart
/// `k` is `RESTART_BACKOFF × k`).
const RESTART_BACKOFF: Duration = Duration::from_millis(10);

#[cfg(unix)]
fn raw_fd<T: AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> i32 {
    0
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of rule shards (and shard worker threads); clamped ≥ 1.
    pub shards: usize,
    /// Deadline for collecting all shard answers to one request.
    pub deadline: Duration,
    /// Bound on each shard's job queue; a full queue sheds the request.
    /// Clamped ≥ 1.
    pub queue_depth: usize,
    /// Serve-side fault injection points (empty plan = no faults).
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 1,
            deadline: Duration::from_secs(5),
            queue_depth: 64,
            faults: FaultPlan::default(),
        }
    }
}

/// One unit of shard work: the baskets of one request routed to this
/// shard (named by its guard), the epoch snapshot they run against, and
/// every basket of the request extended once. Batches ride in one job
/// so queue overhead is per (request, shard), not per basket.
struct Job {
    snapshot: Arc<Epoch<Catalog>>,
    extended: Arc<[Vec<ItemId>]>,
    guard: ReplyGuard,
}

/// What a shard worker hands back to the event loop: the basket indices
/// the job carried and, unless it died before scoring (worker panic,
/// queue discarded), their matches in the same order — the guard's
/// `Drop` posts the failure, so a job can never vanish silently.
struct Completion {
    req: u64,
    baskets: Vec<usize>,
    results: Option<Vec<Vec<Match>>>,
}

/// Completion bookkeeping that must fire exactly once per dispatched
/// job, on every path: success posts the scored results, a panic or a
/// dropped queue posts a failure from `Drop`. Both release the shard's
/// backlog slot and nudge the event loop awake.
struct ReplyGuard {
    shared: Arc<Shared>,
    tx: Sender<Completion>,
    req: u64,
    shard: usize,
    /// The indices of the request's baskets this job scores.
    baskets: Vec<usize>,
    armed: bool,
}

impl ReplyGuard {
    fn post(&mut self, results: Option<Vec<Vec<Match>>>) {
        self.armed = false;
        // A dead receiver means the loop is gone; accounting still runs.
        drop(self.tx.send(Completion {
            req: self.req,
            baskets: std::mem::take(&mut self.baskets),
            results,
        }));
        self.release();
        self.shared.wake();
    }

    /// The job was never handed to a worker (queue full / shard down):
    /// release the backlog slot and hand the baskets back to the
    /// dispatcher, which does its own accounting on those paths.
    fn abandon(mut self) -> Vec<usize> {
        self.armed = false;
        self.release();
        std::mem::take(&mut self.baskets)
    }

    fn release(&self) {
        if let Some(slot) = self.shared.slots.get(self.shard) {
            slot.finish_job();
        }
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if self.armed {
            self.post(None);
        }
    }
}

/// One shard's supervised queue endpoint. The slot holds the *current*
/// worker incarnation's sender; `None` while the shard is down
/// (crashed and not yet restarted, out of restart budget, or shutting
/// down).
struct ShardSlot {
    tx: Mutex<Option<SyncSender<Job>>>,
    /// Jobs admitted but not yet finished (backlog estimate for
    /// admission control).
    queued: AtomicUsize,
    /// Jobs handed to a worker over the shard's lifetime, counted
    /// across restarts — the `q` coordinate of shard fault tokens.
    jobs: AtomicU64,
}

impl ShardSlot {
    fn new() -> ShardSlot {
        ShardSlot {
            tx: Mutex::new(None),
            queued: AtomicUsize::new(0),
            jobs: AtomicU64::new(0),
        }
    }

    /// Publishes a fresh queue of `depth` jobs unless the server is
    /// stopping: the shard is up from here on. The receiver goes to the
    /// worker incarnation serving it. `running` is read under the lock
    /// [`Server::wait`] retires senders under, after `running` is
    /// cleared: a restart racing a shutdown publishes before that
    /// retirement or not at all, so no worker waits on a live sender.
    fn publish_queue(&self, depth: usize, running: &AtomicBool) -> Option<Receiver<Job>> {
        let mut tx = self.tx.lock();
        if !running.load(Ordering::SeqCst) {
            return None;
        }
        let (fresh, rx) = mpsc::sync_channel(depth.max(1));
        *tx = Some(fresh);
        Some(rx)
    }

    fn finish_job(&self) {
        // Saturating: `queued` is reset to 0 when a crashed worker's
        // queue is discarded, so a late decrement must not wrap.
        let _ = self
            .queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                Some(q.saturating_sub(1))
            });
    }
}

/// State shared by the event loop, shard supervisors/workers, and admin
/// reload paths.
struct Shared {
    current: EpochCell<Catalog>,
    slots: Vec<ShardSlot>,
    cfg: ServerConfig,
    obs: Obs,
    running: AtomicBool,
    /// Accepted connections, in accept order — the `c` coordinate of
    /// connection fault tokens. The waker pair uses its own throwaway
    /// listener, so it never consumes a number.
    conns: AtomicU64,
    /// Reload attempts, 1-based — the `r` coordinate of `stale-swap`.
    reloads: AtomicU64,
    /// Write end of the event loop's waker socket pair.
    wake_tx: TcpStream,
    /// Coalesces wake bytes: set before writing, cleared by the loop
    /// *after* draining (and before it collects completions), so a wake
    /// can park at most one byte and none is ever lost.
    wake_pending: AtomicBool,
}

impl Shared {
    /// Nudges the event loop out of `poll`. Coalesced: while a nudge is
    /// already pending no byte is written, so workers can wake at full
    /// rate without ever backing up the pipe.
    fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            let mut tx = &self.wake_tx;
            drop(tx.write(&[1u8]));
            drop(tx.flush());
        }
    }

    /// Loads, validates, and swaps in the store at `path`. On any
    /// failure the current epoch keeps serving and the error reports
    /// why the swap was rejected.
    fn reload(&self, path: &str) -> Result<u64> {
        let attempt = self.reloads.fetch_add(1, Ordering::SeqCst) + 1;
        let result = self.reload_attempt(path, attempt as usize);
        match &result {
            Ok(_) => self.obs.add("serve.swaps", &[], 1),
            Err(_) => self.obs.add("serve.swap_rejected", &[], 1),
        }
        result
    }

    fn reload_attempt(&self, path: &str, attempt: usize) -> Result<u64> {
        let mut bytes = std::fs::read(path)
            .map_err(|e| Error::io(format!("reading store for reload: {path}"), e))?;
        if self.cfg.faults.take(FaultOp::StaleSwap, [attempt, 0]) {
            // Injected stale swap: damage the image after the read but
            // before validation — decode must reject it.
            self.obs.add("serve.fault.stale_swap", &[], 1);
            let mid = bytes.len() / 2;
            if let Some(b) = bytes.get_mut(mid) {
                *b ^= 0xFF;
            }
        }
        let store = crate::store::decode(&bytes)?;
        let num_shards = self.current.load().value().num_shards();
        let catalog = Catalog::new(store, num_shards);
        Ok(self.current.swap(catalog))
    }
}

/// A running server; dropping it does *not* stop the threads — call
/// [`Server::shutdown`] then [`Server::wait`] (or send a `Shutdown`
/// frame) for an orderly exit.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    driver: Option<JoinHandle<()>>,
    supervisors: Vec<JoinHandle<()>>,
    obs: Obs,
}

/// A cloneable admin handle onto a running server: reload the store
/// and read the current epoch without holding the [`Server`] itself
/// (e.g. from the CLI's `--watch-store` poller thread).
#[derive(Clone)]
pub struct ReloadHandle {
    shared: Arc<Shared>,
}

impl ReloadHandle {
    /// Hot-swaps the store at `path` in as the next epoch; see
    /// [`Server::reload`].
    pub fn reload(&self, path: &str) -> Result<u64> {
        self.shared.reload(path)
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.current.epoch()
    }

    /// Whether the server is still accepting work.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }
}

impl Server {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The observability handle the server records into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The current store epoch (1 until the first successful reload).
    pub fn epoch(&self) -> u64 {
        self.shared.current.epoch()
    }

    /// Loads, validates, and hot-swaps the store file at `path`;
    /// returns the new epoch. A rejected reload (missing file, bad
    /// checksum, non-canonical ordering) leaves the old epoch serving.
    pub fn reload(&self, path: &str) -> Result<u64> {
        self.shared.reload(path)
    }

    /// An admin handle that outlives borrows of the server.
    pub fn reload_handle(&self) -> ReloadHandle {
        ReloadHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Requests an orderly stop: flips the flag and nudges the event
    /// loop awake through the waker pipe.
    pub fn shutdown(&self) {
        self.shared.running.store(false, Ordering::SeqCst);
        self.shared.wake();
    }

    /// Blocks until the event loop and every shard supervisor have
    /// exited.
    pub fn wait(mut self) -> Result<()> {
        if let Some(h) = self.driver.take() {
            h.join().map_err(|_| Error::NodeFailure {
                node: 0,
                reason: "server event loop panicked".into(),
            })?;
        }
        // Retire the shard senders: workers drain their queues and
        // return, supervisors see a clean exit and stop.
        for slot in &self.shared.slots {
            slot.tx.lock().take();
        }
        for (shard, h) in self.supervisors.drain(..).enumerate() {
            h.join().map_err(|_| Error::NodeFailure {
                node: shard,
                reason: "shard supervisor panicked".into(),
            })?;
        }
        Ok(())
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), shards and
/// indexes `store` per `cfg`, and starts serving in the background.
pub fn serve(addr: &str, store: RuleStore, cfg: ServerConfig, obs: Obs) -> Result<Server> {
    let listener = TcpListener::bind(addr).map_err(|e| Error::io(format!("binding {addr}"), e))?;
    let local = listener
        .local_addr()
        .map_err(|e| Error::io("reading bound address", e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| Error::io("setting listener non-blocking", e))?;

    // The waker pair: a loopback connection to ourselves on a throwaway
    // listener (so it never consumes a fault-plan `c` coordinate).
    // Workers write a byte, poll reports the read end ready, the loop
    // drains it.
    fn wake_io(what: &'static str) -> impl FnOnce(std::io::Error) -> Error {
        move |e| Error::io(format!("waker setup: {what}"), e)
    }
    let wake_listener = TcpListener::bind("127.0.0.1:0").map_err(wake_io("bind"))?;
    let wake_addr = wake_listener.local_addr().map_err(wake_io("local addr"))?;
    let wake_tx = TcpStream::connect(wake_addr).map_err(wake_io("connect"))?;
    let (wake_rx, _) = wake_listener.accept().map_err(wake_io("accept"))?;
    wake_rx
        .set_nonblocking(true)
        .map_err(wake_io("non-blocking"))?;
    drop(wake_listener);

    let catalog = Catalog::new(store, cfg.shards);
    let num_shards = catalog.num_shards();
    let shared = Arc::new(Shared {
        current: EpochCell::new(catalog),
        slots: (0..num_shards).map(|_| ShardSlot::new()).collect(),
        cfg,
        obs: obs.clone(),
        running: AtomicBool::new(true),
        conns: AtomicU64::new(0),
        reloads: AtomicU64::new(0),
        wake_tx,
        wake_pending: AtomicBool::new(false),
    });

    // Every shard's first queue is published here, before the event
    // loop exists: a query can never find a healthy server's shard
    // "down" just because its supervisor thread has not been scheduled.
    let mut supervisors = Vec::with_capacity(num_shards);
    for (shard, slot) in shared.slots.iter().enumerate() {
        let Some(rx) = slot.publish_queue(shared.cfg.queue_depth, &shared.running) else {
            continue;
        };
        let shared = Arc::clone(&shared);
        supervisors.push(
            std::thread::Builder::new()
                .name(format!("gar-serve-shard-{shard}"))
                .spawn(move || shard_supervisor(shard, &shared, rx))
                .map_err(|e| Error::io("spawning shard supervisor", e))?,
        );
    }

    let (comp_tx, comp_rx) = mpsc::channel();
    let driver = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("gar-serve-loop".into())
            .spawn(move || {
                EventLoop {
                    shared,
                    listener,
                    wake_rx,
                    comp_tx,
                    comp_rx,
                    conns: Vec::new(),
                    pending: HashMap::new(),
                    next_req: 1,
                    poller: Poller::new(),
                    draining: false,
                }
                .run()
            })
            .map_err(|e| Error::io("spawning event loop", e))?
    };

    Ok(Server {
        addr: local,
        shared,
        driver: Some(driver),
        supervisors,
        obs,
    })
}

/// One shard's supervisor: run the worker on the published queue `rx`,
/// and on a panic isolate it, back off, and restart with a fresh queue —
/// up to `MAX_RESTARTS` times. While the slot holds `None` the shard is
/// down and requests are answered degraded.
fn shard_supervisor(shard: usize, shared: &Arc<Shared>, mut rx: Receiver<Job>) {
    let Some(slot) = shared.slots.get(shard) else {
        return;
    };
    let mut restarts = 0usize;
    loop {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shard_worker(shard, slot, &shared.cfg.faults, &rx, &shared.obs);
        }));
        // Down from here until a restart republishes a sender: clear
        // the slot (new requests skip this shard → degraded) and
        // discard the dead queue's backlog estimate. Queued jobs drop
        // with the queue; their guards post failure completions.
        slot.tx.lock().take();
        slot.queued.store(0, Ordering::SeqCst);
        if outcome.is_ok() {
            return; // clean drain: the last sender was retired
        }
        shared
            .obs
            .add("serve.shard_restarts", &[("shard", shard as u64)], 1);
        restarts += 1;
        if restarts > MAX_RESTARTS || !shared.running.load(Ordering::SeqCst) {
            return; // out of budget: shard stays down, answers stay degraded
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the supervisor's restart back-off"
        )]
        std::thread::sleep(RESTART_BACKOFF * restarts as u32);
        match slot.publish_queue(shared.cfg.queue_depth, &shared.running) {
            Some(fresh) => rx = fresh,
            None => return, // shut down during the back-off
        }
    }
}

/// A shard worker incarnation: drains jobs until the current sender is
/// retired, scoring every basket of each job against its own slice of
/// the job's epoch snapshot. Per-basket counters keep their historical
/// meaning (one `serve.queries` per basket scored); fault tokens count
/// whole jobs.
fn shard_worker(shard: usize, slot: &ShardSlot, faults: &FaultPlan, rx: &Receiver<Job>, obs: &Obs) {
    let labels = [("shard", shard as u64)];
    #[expect(
        clippy::disallowed_methods,
        reason = "an idle shard parks until its sender is retired; an idle queue is not a hang"
    )]
    while let Ok(job) = rx.recv() {
        let jobno = (slot.jobs.fetch_add(1, Ordering::SeqCst) + 1) as usize;
        if faults.take(FaultOp::ShardStall, [shard, jobno]) {
            obs.add("serve.fault.shard_stall", &labels, 1);
            #[expect(clippy::disallowed_methods, reason = "the injected stall fault")]
            std::thread::sleep(faults.hang);
        }
        #[expect(
            clippy::panic,
            reason = "this panic is the injected fault: the supervisor's catch_unwind is the code \
                      under test, and the job's guard posts the failure completion from its Drop"
        )]
        if faults.take(FaultOp::ShardPanic, [shard, jobno]) {
            obs.add("serve.fault.shard_panic", &labels, 1);
            panic!("injected shard panic: shard {shard} job {jobno}");
        }
        let _span = obs.span(shard as u64, 0, "query");
        let Job {
            snapshot,
            extended,
            mut guard,
        } = job;
        let mut results = Vec::with_capacity(guard.baskets.len());
        for &i in &guard.baskets {
            let clock = Stopwatch::start();
            let basket = extended.get(i).map_or(&[][..], Vec::as_slice);
            let (matches, walked) = snapshot.value().scan_shard(shard, basket);
            obs.observe(
                "serve.shard_us",
                &labels,
                clock.elapsed().as_micros() as u64,
            );
            // matched ÷ walked is the share of the tree walk that ended
            // in a match.
            obs.add("serve.index.nodes_walked", &labels, walked as u64);
            obs.add("serve.engine.matched", &labels, matches.len() as u64);
            obs.add("serve.queries", &labels, 1);
            if matches.is_empty() {
                obs.add("serve.misses", &labels, 1);
            } else {
                obs.add("serve.hits", &labels, 1);
            }
            results.push(matches);
        }
        guard.post(Some(results));
    }
}

/// Which request shaped a pending query (and so its response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    V2,
    Batch,
}

/// Per-basket scoring state inside a pending request. A basket with no
/// known item routes nowhere and keeps its empty state: no matches.
#[derive(Default)]
struct BasketState {
    /// Shard matches accumulated so far.
    matches: Vec<Match>,
    /// Shards that should have scored this basket but died.
    missing: u32,
}

/// One admitted query waiting on shard completions.
struct Pending {
    /// Owning connection id (not index — indices shift as conns close).
    conn: u64,
    shape: Shape,
    top_k: usize,
    snapshot: Arc<Epoch<Catalog>>,
    clock: Stopwatch,
    deadline: Duration,
    /// Dispatched jobs that have not reported yet.
    jobs_left: usize,
    baskets: Vec<BasketState>,
}

/// An entry in a connection's ordered response queue: responses go out
/// in request order, so every request reserves a slot on arrival and
/// fills it on its way out.
enum RespSlot {
    Ready(Vec<u8>),
    Waiting(u64),
}

/// The typed, retryable answer to a shed or timed-out query.
const SHED: Response = Response::Overloaded {
    retry_after_ms: RETRY_AFTER_MS,
};

/// One live connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Accept-order id — the fault plan's `c` coordinate.
    id: u64,
    inbuf: FrameBuffer,
    outbuf: Vec<u8>,
    resp: VecDeque<RespSlot>,
    /// No more frames will be read (EOF, shutdown, or framing error);
    /// the conn closes once its response queue and out buffer drain.
    read_shut: bool,
    dead: bool,
}

/// The single-threaded readiness loop: listener + waker + every
/// connection in one `poll` set; shard work leaves through bounded
/// queues and comes back through the completion channel.
struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    wake_rx: TcpStream,
    comp_tx: Sender<Completion>,
    comp_rx: Receiver<Completion>,
    conns: Vec<Conn>,
    pending: HashMap<u64, Pending>,
    next_req: u64,
    poller: Poller,
    draining: bool,
}

impl EventLoop {
    fn run(mut self) {
        let mut readiness: Vec<Readiness> = Vec::new();
        loop {
            if !self.shared.running.load(Ordering::SeqCst) {
                self.draining = true;
            }
            if self.draining
                && self.pending.is_empty()
                && self.conns.iter().all(|c| c.outbuf.is_empty())
            {
                return;
            }

            // Sleep until the next readiness event, completion nudge,
            // or the nearest request deadline.
            let mut timeout = POLL_INTERVAL;
            #[expect(
                clippy::iter_over_hash_type,
                clippy::disallowed_methods,
                reason = "a min over deadlines is the same in any iteration order"
            )]
            for p in self.pending.values() {
                let left = p.deadline.saturating_sub(p.clock.elapsed());
                timeout = timeout.min(left.max(Duration::from_millis(1)));
            }
            let n_polled = self.conns.len();
            let mut interests = Vec::with_capacity(2 + n_polled);
            interests.push(Interest {
                fd: raw_fd(&self.listener),
                read: true,
                write: false,
            });
            interests.push(Interest {
                fd: raw_fd(&self.wake_rx),
                read: true,
                write: false,
            });
            for c in &self.conns {
                interests.push(Interest {
                    fd: raw_fd(&c.stream),
                    read: !(c.read_shut || self.draining),
                    write: !c.outbuf.is_empty(),
                });
            }
            if self
                .poller
                .wait(&interests, timeout, &mut readiness)
                .is_err()
            {
                // poll itself failing (not EINTR — the shim swallows
                // that) is unexpected; back off briefly and retry
                // rather than spinning.
                readiness.clear();
                #[expect(clippy::disallowed_methods, reason = "back-off after a failed poll")]
                std::thread::sleep(Duration::from_millis(1));
            }

            // Waker: drain first, clear the coalescing flag second. A wake
            // landing before the clear writes no byte (the flag is still
            // set), but its completion is already in `comp_rx` and is
            // picked up just below; a wake landing after it writes a fresh
            // byte for the next tick. Clearing first would let the drain
            // eat that fresh byte and leave the flag set for good — every
            // later wake suppressed, every round trip a `POLL_INTERVAL`.
            if readiness.get(1).is_some_and(|r| r.readable || r.closed) {
                drain_ready(&mut self.wake_rx);
                self.shared.wake_pending.store(false, Ordering::SeqCst);
            }

            // Completions are drained every tick regardless of what
            // woke us — the waker is a nudge, not the ground truth.
            while let Ok(c) = self.comp_rx.try_recv() {
                self.apply_completion(c);
            }
            self.expire_deadlines();

            if readiness.first().is_some_and(|r| r.readable) {
                self.accept_ready();
            }
            for i in 0..n_polled {
                let Some(r) = readiness.get(2 + i).copied() else {
                    break;
                };
                if r.readable || r.closed {
                    self.read_conn(i);
                }
                if r.writable {
                    self.pump(i);
                }
            }
            self.conns.retain(|c| !c.dead);
        }
    }

    /// Accepts everything currently queued on the listener.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining || !self.shared.running.load(Ordering::SeqCst) {
                        continue; // closing: refuse by immediate drop
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // A response is a few small writes; letting Nagle
                    // batch them against delayed ACKs costs ~40 ms per
                    // round trip on loopback.
                    drop(stream.set_nodelay(true));
                    let id = self.shared.conns.fetch_add(1, Ordering::SeqCst);
                    self.conns.push(Conn {
                        stream,
                        id,
                        inbuf: FrameBuffer::new(),
                        outbuf: Vec::new(),
                        resp: VecDeque::new(),
                        read_shut: false,
                        dead: false,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Pulls whatever the socket has, surfaces complete frames, and
    /// dispatches them. A framing error (oversize claim, checksum
    /// mismatch) means the stream is no longer frame-aligned: answer
    /// with a best-effort error frame and close once it flushes.
    fn read_conn(&mut self, ci: usize) {
        let mut frames = Vec::new();
        let mut framing_error = false;
        {
            let Some(conn) = self.conns.get_mut(ci) else {
                return;
            };
            if conn.dead || conn.read_shut {
                return;
            }
            let status = match conn.inbuf.fill(&mut conn.stream) {
                Ok(s) => s,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            };
            loop {
                match conn.inbuf.next_frame() {
                    Ok(Some(p)) => frames.push(p),
                    Ok(None) => break,
                    Err(_) => {
                        framing_error = true;
                        break;
                    }
                }
            }
            if status == FillStatus::Eof {
                conn.read_shut = true;
                if frames.is_empty()
                    && !framing_error
                    && conn.resp.is_empty()
                    && conn.outbuf.is_empty()
                {
                    conn.dead = true; // clean EOF, nothing in flight
                }
            }
        }
        for payload in frames {
            if self.conns.get(ci).is_none_or(|c| c.dead) {
                return;
            }
            self.handle_frame(ci, payload);
        }
        if framing_error {
            self.shared.obs.add("serve.errors", &[], 1);
            if let Some((conn, req)) = self.reserve(ci) {
                if let Some(c) = self.conns.get_mut(ci) {
                    c.read_shut = true;
                }
                self.exit(conn, req, &Response::Error("malformed frame".into()), None);
            }
        }
    }

    /// Reserves the next response slot on connection `ci`, in request
    /// order; returns the connection id and the request id it answers.
    fn reserve(&mut self, ci: usize) -> Option<(u64, u64)> {
        let conn = self.conns.get_mut(ci)?;
        let req = self.next_req;
        self.next_req += 1;
        conn.resp.push_back(RespSlot::Waiting(req));
        Some((conn.id, req))
    }

    /// Decodes and dispatches one request frame. Its response slot is
    /// reserved first; every outcome then leaves through [`Self::exit`].
    fn handle_frame(&mut self, ci: usize, payload: Vec<u8>) {
        let obs = self.shared.obs.clone();
        let Some((conn, req)) = self.reserve(ci) else {
            return;
        };
        let request = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame was well-formed (checksum passed), so the
                // stream is still aligned: report and keep serving.
                obs.add("serve.errors", &[], 1);
                return self.exit(conn, req, &Response::Error(e.to_string()), None);
            }
        };
        if self
            .shared
            .cfg
            .faults
            .take(FaultOp::ConnReset, [conn as usize, 0])
        {
            // Injected reset: the request was read but the connection
            // dies before a single response byte — the client must
            // reconnect and retry.
            obs.add("serve.fault.conn_reset", &[], 1);
            if let Some(c) = self.conns.get_mut(ci) {
                c.dead = true;
            }
            return;
        }
        if let Some(client) = request.version().filter(|&v| v != PROTOCOL_VERSION) {
            obs.add("serve.version_mismatch", &[], 1);
            let mismatch = Response::VersionMismatch {
                server: PROTOCOL_VERSION,
                client,
            };
            return self.exit(conn, req, &mismatch, None);
        }
        let (shape, baskets, top_k, budget_ms) = match request {
            Request::QueryV2 {
                basket,
                top_k,
                budget_ms,
                ..
            } => (Shape::V2, vec![basket], top_k, budget_ms),
            Request::QueryBatch {
                baskets,
                top_k,
                budget_ms,
                ..
            } => (Shape::Batch, baskets, top_k, budget_ms),
            Request::Reload { path, .. } => {
                let response = match self.shared.reload(&path) {
                    Ok(epoch) => Response::ReloadAck { epoch },
                    Err(e) => {
                        obs.add("serve.errors", &[], 1);
                        Response::Error(format!("reload rejected: {e}"))
                    }
                };
                return self.exit(conn, req, &response, None);
            }
            Request::Shutdown => {
                self.exit(conn, req, &Response::ShutdownAck, None);
                if let Some(c) = self.conns.get_mut(ci) {
                    c.read_shut = true;
                }
                self.shared.running.store(false, Ordering::SeqCst);
                return;
            }
        };
        self.start_query(conn, req, shape, baskets, top_k, budget_ms);
    }

    /// Admits one query-shaped request: affinity routing, admission
    /// control, and per-shard batched dispatch.
    fn start_query(
        &mut self,
        conn: u64,
        req: u64,
        shape: Shape,
        baskets: Vec<Vec<ItemId>>,
        top_k: u32,
        budget_ms: u32,
    ) {
        let shared = Arc::clone(&self.shared);
        let obs = &shared.obs;
        obs.add("serve.requests", &[], 1);
        obs.add("serve.baskets", &[], baskets.len() as u64);
        let clock = Stopwatch::start();
        let snapshot = shared.current.load();
        let catalog = snapshot.value();

        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); shared.slots.len()];
        for (i, basket) in baskets.iter().enumerate() {
            match catalog.route(basket) {
                Route::Empty => obs.add("serve.routed.empty", &[], 1),
                Route::Single(s) => {
                    obs.add("serve.routed.single", &[], 1);
                    if let Some(b) = buckets.get_mut(s) {
                        b.push(i);
                    }
                }
                Route::Broadcast => {
                    obs.add("serve.routed.fanout", &[], 1);
                    for b in buckets.iter_mut() {
                        b.push(i);
                    }
                }
            }
        }

        // Admission: a budget the current backlog plus our own jobs
        // cannot meet is shed typed before any shard work.
        let njobs = buckets.iter().filter(|b| !b.is_empty()).count() as u64;
        if budget_ms > 0 && njobs > 0 {
            let backlog = shared
                .slots
                .iter()
                .map(|s| s.queued.load(Ordering::SeqCst))
                .max()
                .unwrap_or(0) as u64;
            if (backlog + njobs).saturating_mul(EST_JOB_MS) > budget_ms as u64 {
                return self.exit(conn, req, &SHED, Some(clock));
            }
        }

        let extended: Arc<[Vec<ItemId>]> =
            baskets.iter().map(|b| catalog.extend_basket(b)).collect();
        let mut p = Pending {
            conn,
            shape,
            top_k: top_k as usize,
            snapshot: Arc::clone(&snapshot),
            clock,
            deadline: match budget_ms {
                0 => shared.cfg.deadline,
                ms => shared.cfg.deadline.min(Duration::from_millis(ms as u64)),
            },
            jobs_left: 0,
            baskets: baskets.iter().map(|_| BasketState::default()).collect(),
        };
        for (s, bucket) in buckets.into_iter().enumerate() {
            let Some(slot) = shared.slots.get(s).filter(|_| !bucket.is_empty()) else {
                continue;
            };
            slot.queued.fetch_add(1, Ordering::SeqCst);
            let job = Job {
                snapshot: Arc::clone(&snapshot),
                extended: Arc::clone(&extended),
                guard: ReplyGuard {
                    shared: Arc::clone(&shared),
                    tx: self.comp_tx.clone(),
                    req,
                    shard: s,
                    baskets: bucket,
                    armed: true,
                },
            };
            // The guard is held across try_send only, which never blocks.
            let sent = match slot.tx.lock().as_ref() {
                Some(tx) => tx.try_send(job),
                None => Err(TrySendError::Disconnected(job)),
            };
            match sent {
                Ok(()) => p.jobs_left += 1,
                Err(TrySendError::Full(job)) => {
                    // Shed the whole request. Jobs already queued on
                    // other shards run to completion; their results
                    // reference a request that was never registered
                    // and are discarded on arrival.
                    job.guard.abandon();
                    return self.exit(conn, req, &SHED, Some(p.clock));
                }
                Err(TrySendError::Disconnected(job)) => {
                    // Shard down (crashed, restarting, or out of
                    // budget): answer without it.
                    for i in job.guard.abandon() {
                        if let Some(b) = p.baskets.get_mut(i) {
                            b.missing += 1;
                        }
                    }
                }
            }
        }
        if p.jobs_left == 0 {
            // Fully answered from empty routes / dead shards.
            self.answer(req, p);
        } else {
            self.pending.insert(req, p);
        }
    }

    /// Applies one shard completion; answers the request once every
    /// dispatched job has reported.
    fn apply_completion(&mut self, c: Completion) {
        let Some(p) = self.pending.get_mut(&c.req) else {
            return; // shed, timed out, or abandoned: stale result
        };
        p.jobs_left -= 1;
        match c.results {
            Some(results) => {
                for (&i, matches) in c.baskets.iter().zip(results) {
                    if let Some(b) = p.baskets.get_mut(i) {
                        b.matches.extend(matches);
                    }
                }
            }
            // The job died before scoring: every basket it carried is
            // missing this shard's answer.
            None => {
                for &i in &c.baskets {
                    if let Some(b) = p.baskets.get_mut(i) {
                        b.missing += 1;
                    }
                }
            }
        }
        if p.jobs_left == 0 {
            if let Some(p) = self.pending.remove(&c.req) {
                self.answer(c.req, p);
            }
        }
    }

    /// Times out every pending request whose deadline has passed: typed
    /// and retryable, indistinguishable from a shed.
    fn expire_deadlines(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "each expired request fills the response slot reserved at its arrival, so \
                      the order they expire in never reaches the wire"
        )]
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.clock.elapsed() >= p.deadline)
            .map(|(req, _)| *req)
            .collect();
        for req in expired {
            if let Some(p) = self.pending.remove(&req) {
                self.shared.obs.add("serve.deadline_exceeded", &[], 1);
                self.exit(p.conn, req, &SHED, Some(p.clock));
            }
        }
    }

    /// Answers a fully-reported query: merge per basket, record
    /// degradation, and leave.
    fn answer(&mut self, req: u64, p: Pending) {
        let catalog = p.snapshot.value();
        let mut answers: Vec<BatchAnswer> = p
            .baskets
            .into_iter()
            .map(|b| {
                if b.missing > 0 {
                    self.shared.obs.add("serve.degraded", &[], 1);
                }
                BatchAnswer {
                    shards_missing: b.missing,
                    recs: catalog.merge(b.matches, p.top_k),
                }
            })
            .collect();
        let epoch = p.snapshot.number();
        let response = match p.shape {
            Shape::Batch => Response::ResultsBatch { epoch, answers },
            Shape::V2 => {
                let a = answers.pop().unwrap_or(BatchAnswer {
                    shards_missing: 0,
                    recs: Vec::new(),
                });
                Response::ResultsV2 {
                    epoch,
                    shards_missing: a.shards_missing,
                    recs: a.recs,
                }
            }
        };
        self.exit(p.conn, req, &response, Some(p.clock));
    }

    /// The one exit of every request: counts a shed, and for a query its
    /// latency since admission; frames `response` into the slot `req`
    /// reserved on connection `conn`; and pumps. A connection that died
    /// in the meantime just discards the response.
    fn exit(&mut self, conn: u64, req: u64, response: &Response, clock: Option<Stopwatch>) {
        let obs = &self.shared.obs;
        if matches!(response, Response::Overloaded { .. }) {
            obs.add("serve.shed", &[], 1);
        }
        if let Some(clock) = clock {
            obs.observe("serve.latency_us", &[], clock.elapsed().as_micros() as u64);
        }
        let Some(ci) = self.conns.iter().position(|c| c.id == conn && !c.dead) else {
            return;
        };
        let slot = self.conns.get_mut(ci).and_then(|c| {
            c.resp
                .iter_mut()
                .find(|s| matches!(s, RespSlot::Waiting(r) if *r == req))
        });
        if let Some(slot) = slot {
            let mut framed = Vec::new();
            // Writing into a Vec cannot fail.
            drop(write_frame(&mut framed, &encode_response(response)));
            *slot = RespSlot::Ready(framed);
        }
        self.pump(ci);
    }

    /// Moves every leading ready response into the out buffer (honoring
    /// a scheduled `slow-frame` fault by dribbling that response out in
    /// small delayed chunks) and writes as much as the socket takes.
    fn pump(&mut self, ci: usize) {
        let shared = Arc::clone(&self.shared);
        let Some(conn) = self.conns.get_mut(ci) else {
            return;
        };
        if conn.dead {
            return;
        }
        while matches!(conn.resp.front(), Some(RespSlot::Ready(_))) {
            let Some(RespSlot::Ready(framed)) = conn.resp.pop_front() else {
                break;
            };
            if shared
                .cfg
                .faults
                .take(FaultOp::SlowFrame, [conn.id as usize, 0])
            {
                shared.obs.add("serve.fault.slow_frame", &[], 1);
                if dribble(conn, &framed, &shared).is_err() {
                    conn.dead = true;
                    return;
                }
            } else {
                conn.outbuf.extend_from_slice(&framed);
            }
        }
        flush_out(conn);
        if conn.read_shut && conn.resp.is_empty() && conn.outbuf.is_empty() {
            conn.dead = true; // drained: close
        }
    }
}

/// Writes the out buffer until the socket would block.
fn flush_out(conn: &mut Conn) {
    while !conn.outbuf.is_empty() {
        match conn.stream.write(&conn.outbuf) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => drop(conn.outbuf.drain(..n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// The `slow-frame` fault: flush what's buffered, then trickle the
/// response out in 3-byte chunks with delays (the client-side frame
/// reader must reassemble partial writes). Temporarily blocking — the
/// loop stalls for the dribble, which is the point of the fault.
fn dribble(conn: &mut Conn, framed: &[u8], shared: &Shared) -> std::io::Result<()> {
    conn.stream.set_nonblocking(false)?;
    conn.stream.write_all(&conn.outbuf)?;
    conn.outbuf.clear();
    for chunk in framed.chunks(3) {
        conn.stream.write_all(chunk)?;
        conn.stream.flush()?;
        #[expect(clippy::disallowed_methods, reason = "the injected dribble delay")]
        std::thread::sleep(shared.cfg.faults.delay);
    }
    conn.stream.set_nonblocking(true)
}
