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
//! order (a slot is reserved when the request is admitted and filled
//! when its shard jobs complete), so concurrent queries on one socket
//! never reorder.
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

use crate::engine::{Catalog, Match, Recommendation, Route};
use crate::epoch::{Epoch, EpochCell};
use crate::netpoll::{Interest, Poller, Readiness};
use crate::protocol::{
    decode_request, drain_ready, encode_response, write_frame, BatchAnswer, FillStatus,
    FrameBuffer, Request, Response, PROTOCOL_VERSION,
};
use crate::store::RuleStore;
use gar_cluster::{FaultOp, FaultPlan};
use gar_modelcheck::shim::Mutex;
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

/// One basket inside a shard job: which answer slot it belongs to and
/// its (shared) extended transaction.
struct JobItem {
    index: usize,
    extended: Arc<Vec<ItemId>>,
}

/// One unit of shard work: every basket of one request routed to this
/// shard, the epoch snapshot they run against, and the completion
/// guard. Batches ride in one job so queue overhead is per
/// (request, shard), not per basket.
struct Job {
    snapshot: Arc<Epoch<Catalog>>,
    items: Vec<JobItem>,
    guard: ReplyGuard,
}

/// What a shard worker hands back to the event loop. `results` is
/// `None` when the job died before scoring (worker panic, queue
/// discarded) — the guard's `Drop` posts it so a job can never vanish
/// silently.
struct Completion {
    req: u64,
    shard: usize,
    results: Option<Vec<(usize, Vec<Match>)>>,
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
    armed: bool,
}

impl ReplyGuard {
    fn complete(mut self, results: Vec<(usize, Vec<Match>)>) {
        self.armed = false;
        // A dead receiver means the loop is gone; accounting still runs.
        drop(self.tx.send(Completion {
            req: self.req,
            shard: self.shard,
            results: Some(results),
        }));
        self.settle();
    }

    /// The job was never handed to a worker (queue full / shard down):
    /// release the backlog slot without posting a completion — the
    /// dispatcher does its own accounting on those paths.
    fn abandon(mut self) {
        self.armed = false;
        if let Some(slot) = self.shared.slots.get(self.shard) {
            slot.finish_job();
        }
    }

    fn settle(&self) {
        if let Some(slot) = self.shared.slots.get(self.shard) {
            slot.finish_job();
        }
        self.shared.wake();
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if self.armed {
            drop(self.tx.send(Completion {
                req: self.req,
                shard: self.shard,
                results: None,
            }));
            self.settle();
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

    /// Publishes a fresh queue of `depth` jobs: the shard is up from
    /// here on. The receiver goes to the worker incarnation serving it.
    fn publish_queue(&self, depth: usize) -> Receiver<Job> {
        let (tx, rx) = mpsc::sync_channel(depth.max(1));
        *self.tx.lock() = Some(tx);
        rx
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
        let rx = slot.publish_queue(shared.cfg.queue_depth);
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
        rx = slot.publish_queue(shared.cfg.queue_depth);
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
        let mut results = Vec::with_capacity(job.items.len());
        for item in &job.items {
            let clock = Stopwatch::start();
            let (matches, walked) = job.snapshot.value().scan_shard(shard, &item.extended);
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
            results.push((item.index, matches));
        }
        job.guard.complete(results);
    }
}

/// Which request shaped a pending query (and so its response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    V2,
    Batch,
}

/// Per-basket scoring state inside a pending request.
#[derive(Default)]
struct BasketState {
    /// Pre-resolved answer (empty route): `(recs, missing)`.
    ready: Option<(Vec<Recommendation>, u32)>,
    /// Shard matches accumulated so far.
    matches: Vec<Match>,
    /// Shards that should have scored this basket but died.
    missing: u32,
}

/// One admitted request waiting on shard completions.
struct Pending {
    /// Owning connection id (not index — indices shift as conns close).
    conn: u64,
    shape: Shape,
    top_k: usize,
    snapshot: Arc<Epoch<Catalog>>,
    clock: Stopwatch,
    deadline: Duration,
    expected: usize,
    done: usize,
    /// Which basket indices each dispatched shard job covers, so a
    /// failure completion can charge `missing` to exactly those.
    jobs: Vec<(usize, Vec<usize>)>,
    baskets: Vec<BasketState>,
}

/// An entry in a connection's ordered response queue: responses go out
/// in request order, so a slot is reserved at admission and filled at
/// completion.
enum RespSlot {
    Ready(Vec<u8>),
    Waiting(u64),
}

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

/// Encodes and frames a response for a connection's out queue.
fn frame_bytes(response: &Response) -> Vec<u8> {
    let mut framed = Vec::new();
    // Writing into a Vec cannot fail.
    drop(write_frame(&mut framed, &encode_response(response)));
    framed
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
            self.respond(ci, frame_bytes(&Response::Error("malformed frame".into())));
            if let Some(conn) = self.conns.get_mut(ci) {
                conn.read_shut = true;
            }
            self.pump(ci);
        }
    }

    /// Decodes and dispatches one request frame.
    fn handle_frame(&mut self, ci: usize, payload: Vec<u8>) {
        let obs = self.shared.obs.clone();
        let request = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame was well-formed (checksum passed), so the
                // stream is still aligned: report and keep serving.
                obs.add("serve.errors", &[], 1);
                self.respond(ci, frame_bytes(&Response::Error(e.to_string())));
                return;
            }
        };
        let Some(conn_id) = self.conns.get(ci).map(|c| c.id as usize) else {
            return;
        };
        if self
            .shared
            .cfg
            .faults
            .take(FaultOp::ConnReset, [conn_id, 0])
        {
            // Injected reset: the request was read but the connection
            // dies before a single response byte — the client must
            // reconnect and retry.
            obs.add("serve.fault.conn_reset", &[], 1);
            if let Some(conn) = self.conns.get_mut(ci) {
                conn.dead = true;
            }
            return;
        }
        let mismatch = |client: u16| {
            frame_bytes(&Response::VersionMismatch {
                server: PROTOCOL_VERSION,
                client,
            })
        };
        match request {
            Request::QueryV2 {
                version,
                basket,
                top_k,
                budget_ms,
            } => {
                if version != PROTOCOL_VERSION {
                    obs.add("serve.version_mismatch", &[], 1);
                    self.respond(ci, mismatch(version));
                } else {
                    self.start_request(ci, Shape::V2, vec![basket], top_k, budget_ms);
                }
            }
            Request::QueryBatch {
                version,
                baskets,
                top_k,
                budget_ms,
            } => {
                if version != PROTOCOL_VERSION {
                    obs.add("serve.version_mismatch", &[], 1);
                    self.respond(ci, mismatch(version));
                } else {
                    self.start_request(ci, Shape::Batch, baskets, top_k, budget_ms);
                }
            }
            Request::Reload { version, path } => {
                if version != PROTOCOL_VERSION {
                    obs.add("serve.version_mismatch", &[], 1);
                    self.respond(ci, mismatch(version));
                    return;
                }
                let response = match self.shared.reload(&path) {
                    Ok(epoch) => Response::ReloadAck { epoch },
                    Err(e) => {
                        obs.add("serve.errors", &[], 1);
                        Response::Error(format!("reload rejected: {e}"))
                    }
                };
                self.respond(ci, frame_bytes(&response));
            }
            Request::Shutdown => {
                self.respond(ci, frame_bytes(&Response::ShutdownAck));
                if let Some(conn) = self.conns.get_mut(ci) {
                    conn.read_shut = true;
                }
                self.shared.running.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Admits one query-shaped request: affinity routing, admission
    /// control, and per-shard batched dispatch. A response slot is
    /// reserved in request order whatever the outcome.
    fn start_request(
        &mut self,
        ci: usize,
        shape: Shape,
        baskets: Vec<Vec<ItemId>>,
        top_k: u32,
        budget_ms: u32,
    ) {
        let shared = Arc::clone(&self.shared);
        let obs = shared.obs.clone();
        obs.add("serve.requests", &[], 1);
        obs.add("serve.baskets", &[], baskets.len() as u64);
        let clock = Stopwatch::start();
        let snapshot = shared.current.load();
        let nshards = shared.slots.len();

        let mut states: Vec<BasketState> = Vec::with_capacity(baskets.len());
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        {
            let catalog = snapshot.value();
            for (i, basket) in baskets.iter().enumerate() {
                let mut st = BasketState::default();
                match catalog.route(basket) {
                    Route::Empty => {
                        obs.add("serve.routed.empty", &[], 1);
                        st.ready = Some((Vec::new(), 0));
                    }
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
                states.push(st);
            }
        }

        let njobs = buckets.iter().filter(|b| !b.is_empty()).count();
        let deadline = if budget_ms == 0 {
            shared.cfg.deadline
        } else {
            shared
                .cfg
                .deadline
                .min(Duration::from_millis(budget_ms as u64))
        };

        // Admission: a budget the current backlog plus our own jobs
        // cannot meet is shed typed before any shard work.
        if budget_ms > 0 && njobs > 0 {
            let backlog = shared
                .slots
                .iter()
                .map(|s| s.queued.load(Ordering::SeqCst))
                .max()
                .unwrap_or(0) as u64;
            if (backlog + njobs as u64).saturating_mul(EST_JOB_MS) > budget_ms as u64 {
                obs.add("serve.shed", &[], 1);
                obs.observe("serve.latency_us", &[], clock.elapsed().as_micros() as u64);
                let shed = Response::Overloaded {
                    retry_after_ms: RETRY_AFTER_MS,
                };
                self.respond(ci, frame_bytes(&shed));
                return;
            }
        }

        // Share each dispatched basket's extended transaction across
        // however many shard jobs carry it.
        let mut dispatched = vec![false; baskets.len()];
        for bucket in &buckets {
            for &i in bucket {
                if let Some(d) = dispatched.get_mut(i) {
                    *d = true;
                }
            }
        }
        let catalog = snapshot.value();
        let extended: Vec<Option<Arc<Vec<ItemId>>>> = baskets
            .iter()
            .zip(&dispatched)
            .map(|(basket, &d)| d.then(|| Arc::new(catalog.extend_basket(basket))))
            .collect();

        let req = self.next_req;
        self.next_req += 1;
        let mut expected = 0usize;
        let mut jobs: Vec<(usize, Vec<usize>)> = Vec::new();
        for (s, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let Some(slot) = shared.slots.get(s) else {
                continue;
            };
            let mut items = Vec::with_capacity(bucket.len());
            for &i in &bucket {
                if let Some(Some(extended)) = extended.get(i) {
                    items.push(JobItem {
                        index: i,
                        extended: Arc::clone(extended),
                    });
                }
            }
            slot.queued.fetch_add(1, Ordering::SeqCst);
            let job = Job {
                snapshot: Arc::clone(&snapshot),
                items,
                guard: ReplyGuard {
                    shared: Arc::clone(&shared),
                    tx: self.comp_tx.clone(),
                    req,
                    shard: s,
                    armed: true,
                },
            };
            // The guard is held across try_send only, which never blocks.
            let sent = match slot.tx.lock().as_ref() {
                Some(tx) => tx.try_send(job),
                None => Err(TrySendError::Disconnected(job)),
            };
            match sent {
                Ok(()) => {
                    expected += 1;
                    jobs.push((s, bucket));
                }
                Err(TrySendError::Full(job)) => {
                    // Shed the whole request. Jobs already queued on
                    // other shards run to completion; their results
                    // reference a request id that was never registered
                    // and are discarded on arrival.
                    let Job { guard, .. } = job;
                    guard.abandon();
                    obs.add("serve.shed", &[], 1);
                    obs.observe("serve.latency_us", &[], clock.elapsed().as_micros() as u64);
                    let shed = Response::Overloaded {
                        retry_after_ms: RETRY_AFTER_MS,
                    };
                    self.respond(ci, frame_bytes(&shed));
                    return;
                }
                Err(TrySendError::Disconnected(job)) => {
                    // Shard down (crashed, restarting, or out of
                    // budget): answer without it.
                    let Job { guard, .. } = job;
                    guard.abandon();
                    for &i in &bucket {
                        if let Some(st) = states.get_mut(i) {
                            st.missing += 1;
                        }
                    }
                }
            }
        }

        let conn_id = self.conns.get(ci).map(|c| c.id).unwrap_or(u64::MAX);
        let pending = Pending {
            conn: conn_id,
            shape,
            top_k: top_k as usize,
            snapshot,
            clock,
            deadline,
            expected,
            done: 0,
            jobs,
            baskets: states,
        };
        self.respond_waiting(ci, req);
        if expected == 0 {
            // Fully answered from empty routes / dead shards.
            self.finalize_ok(req, pending);
        } else {
            self.pending.insert(req, pending);
        }
    }

    /// Applies one shard completion; finalizes the request once every
    /// dispatched job has reported.
    fn apply_completion(&mut self, c: Completion) {
        let finished = {
            let Some(p) = self.pending.get_mut(&c.req) else {
                return; // shed, timed out, or abandoned: stale result
            };
            p.done += 1;
            match c.results {
                Some(list) => {
                    for (idx, m) in list {
                        if let Some(b) = p.baskets.get_mut(idx) {
                            b.matches.extend(m);
                        }
                    }
                }
                None => {
                    // The job died before scoring: every basket it
                    // carried is missing this shard's answer.
                    let idxs = p
                        .jobs
                        .iter()
                        .find(|(s, _)| *s == c.shard)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default();
                    for idx in idxs {
                        if let Some(b) = p.baskets.get_mut(idx) {
                            b.missing += 1;
                        }
                    }
                }
            }
            p.done >= p.expected
        };
        if finished {
            if let Some(p) = self.pending.remove(&c.req) {
                self.finalize_ok(c.req, p);
            }
        }
    }

    /// Times out every pending request whose deadline has passed.
    fn expire_deadlines(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "each expired request fills the response slot reserved at its admission, so \
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
                self.finalize_timeout(req, p);
            }
        }
    }

    /// Builds the success response for a fully-reported request: merge
    /// per basket, record degradation, and deliver.
    fn finalize_ok(&mut self, req: u64, p: Pending) {
        let obs = self.shared.obs.clone();
        let Pending {
            conn,
            shape,
            top_k,
            snapshot,
            clock,
            baskets,
            ..
        } = p;
        let epoch = snapshot.number();
        let mut answers = Vec::with_capacity(baskets.len());
        for b in baskets {
            let (recs, missing) = match b.ready {
                Some(ready) => ready,
                None => (snapshot.value().merge(b.matches, top_k), b.missing),
            };
            if missing > 0 {
                obs.add("serve.degraded", &[], 1);
            }
            answers.push(BatchAnswer {
                shards_missing: missing,
                recs,
            });
        }
        let response = match shape {
            Shape::Batch => Response::ResultsBatch { epoch, answers },
            Shape::V2 => {
                let a = answers.into_iter().next().unwrap_or(BatchAnswer {
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
        obs.observe("serve.latency_us", &[], clock.elapsed().as_micros() as u64);
        self.deliver(conn, req, frame_bytes(&response));
    }

    /// Builds the timeout response: typed and retryable, indistinguishable
    /// from a shed.
    fn finalize_timeout(&mut self, req: u64, p: Pending) {
        let obs = self.shared.obs.clone();
        obs.add("serve.deadline_exceeded", &[], 1);
        obs.add("serve.shed", &[], 1);
        let response = Response::Overloaded {
            retry_after_ms: RETRY_AFTER_MS,
        };
        obs.observe(
            "serve.latency_us",
            &[],
            p.clock.elapsed().as_micros() as u64,
        );
        self.deliver(p.conn, req, frame_bytes(&response));
    }

    /// Fills the reserved response slot for `req` on its connection and
    /// pumps. A connection that died in the meantime just discards the
    /// response.
    fn deliver(&mut self, conn_id: u64, req: u64, framed: Vec<u8>) {
        let Some(ci) = self.conns.iter().position(|c| c.id == conn_id && !c.dead) else {
            return;
        };
        let mut filled = false;
        if let Some(conn) = self.conns.get_mut(ci) {
            if let Some(slot) = conn
                .resp
                .iter_mut()
                .find(|s| matches!(s, RespSlot::Waiting(r) if *r == req))
            {
                *slot = RespSlot::Ready(framed);
                filled = true;
            }
        }
        if filled {
            self.pump(ci);
        }
    }

    /// Enqueues an immediately-ready response in request order.
    fn respond(&mut self, ci: usize, framed: Vec<u8>) {
        if let Some(conn) = self.conns.get_mut(ci) {
            conn.resp.push_back(RespSlot::Ready(framed));
        }
        self.pump(ci);
    }

    /// Reserves a response slot for a request still in flight.
    fn respond_waiting(&mut self, ci: usize, req: u64) {
        if let Some(conn) = self.conns.get_mut(ci) {
            conn.resp.push_back(RespSlot::Waiting(req));
        }
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
