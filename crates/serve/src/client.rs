//! The blocking query client.
//!
//! Connects with `gar-cluster`'s [`RetryPolicy`] (the server may still
//! be binding when a fresh pipeline reaches the query step), speaks the
//! framed protocol, and optionally bounds every read/write with a
//! socket deadline that surfaces as the workspace's retryable
//! [`Error::Timeout`]. For embedders that hold the rule store in
//! process, `Catalog::query` answers without a socket — this client is
//! the remote twin of that call.
//!
//! Mid-query resilience: queries are idempotent, so on a *retryable*
//! failure ([`Error::is_retryable`]: transient I/O — including the
//! server resetting the connection — or a deadline expiry) the client
//! transparently reconnects under its [`RetryPolicy`] and retries the
//! query exactly once before surfacing the error. Non-idempotent admin
//! frames (`Reload`, `Shutdown`) are never retried: a reload that died
//! mid-flight may or may not have swapped, and the caller must decide.

#![expect(
    clippy::disallowed_types,
    reason = "gar-serve is where sockets live; frames go through the protocol codec"
)]

use crate::engine::Recommendation;
use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, BatchAnswer, Request, Response,
    PROTOCOL_VERSION,
};
use gar_cluster::RetryPolicy;
use gar_types::{Error, ItemId, Result};
use std::net::TcpStream;
use std::time::Duration;

/// A connected client; one request in flight at a time.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addr: String,
    deadline: Option<Duration>,
    retry: RetryPolicy,
}

/// A v2 query outcome: either an epoch-stamped (possibly degraded)
/// answer or a typed shed the caller should back off from.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// The scored recommendations, best first, with provenance.
    Results {
        /// Epoch of the store snapshot that answered.
        epoch: u64,
        /// Shards that contributed nothing (0 = complete answer).
        shards_missing: u32,
        /// The recommendations.
        recs: Vec<Recommendation>,
    },
    /// Shed under overload; retry after the suggested backoff.
    Overloaded {
        /// Suggested backoff before retrying.
        retry_after_ms: u32,
    },
}

/// A batched query outcome: one answer per submitted basket, in
/// submission order, all scored against a single epoch — or one typed
/// shed covering the whole batch (admission is all-or-nothing).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchReply {
    /// Per-basket answers, index-aligned with the request's baskets.
    Results {
        /// Epoch of the store snapshot that answered every basket.
        epoch: u64,
        /// One answer per basket, in submission order.
        answers: Vec<BatchAnswer>,
    },
    /// The whole batch was shed; retry after the suggested backoff.
    Overloaded {
        /// Suggested backoff before retrying.
        retry_after_ms: u32,
    },
}

fn open(addr: &str, deadline: Option<Duration>, retry: &RetryPolicy) -> Result<TcpStream> {
    let stream = retry.run(|| {
        TcpStream::connect(addr).map_err(|e| Error::io(format!("connecting to {addr}"), e))
    })?;
    stream
        .set_read_timeout(deadline)
        .and_then(|()| stream.set_write_timeout(deadline))
        .map_err(|e| Error::io("setting socket deadline", e))?;
    // Requests are a few small writes; Nagle + delayed ACK would
    // add ~40 ms to every round trip.
    drop(stream.set_nodelay(true));
    Ok(stream)
}

impl Client {
    /// Connects to `addr`, retrying transient failures per `retry`.
    /// `deadline`, when set, bounds every subsequent read and write.
    pub fn connect(addr: &str, deadline: Option<Duration>, retry: &RetryPolicy) -> Result<Client> {
        let stream = open(addr, deadline, retry)?;
        Ok(Client {
            stream,
            addr: addr.to_string(),
            deadline,
            retry: *retry,
        })
    }

    /// Sends one query and decodes the recommendations.
    pub fn query(&mut self, basket: &[ItemId], top_k: u32) -> Result<Vec<Recommendation>> {
        let payload = self.query_raw(basket, top_k)?;
        match decode_response(&payload)? {
            Response::Results(recs) => Ok(recs),
            other => Err(unexpected("results", other)),
        }
    }

    /// Sends one query and returns the raw response payload bytes.
    /// Deterministic server answers make these byte-comparable across
    /// runs — the serve test suites compare them.
    pub fn query_raw(&mut self, basket: &[ItemId], top_k: u32) -> Result<Vec<u8>> {
        let req = encode_request(&Request::Query {
            basket: basket.to_vec(),
            top_k,
        });
        self.round_trip(&req)
    }

    /// Sends one v2 query (epoch-stamped, budget-aware) and decodes
    /// the reply.
    pub fn query_v2(
        &mut self,
        basket: &[ItemId],
        top_k: u32,
        budget_ms: u32,
    ) -> Result<QueryReply> {
        let payload = self.query_v2_raw(basket, top_k, budget_ms)?;
        match decode_response(&payload)? {
            Response::ResultsV2 {
                epoch,
                shards_missing,
                recs,
            } => Ok(QueryReply::Results {
                epoch,
                shards_missing,
                recs,
            }),
            Response::Overloaded { retry_after_ms } => {
                Ok(QueryReply::Overloaded { retry_after_ms })
            }
            other => Err(unexpected("v2 results", other)),
        }
    }

    /// Raw-payload twin of [`Client::query_v2`] for transcripts.
    pub fn query_v2_raw(
        &mut self,
        basket: &[ItemId],
        top_k: u32,
        budget_ms: u32,
    ) -> Result<Vec<u8>> {
        let req = encode_request(&Request::QueryV2 {
            version: PROTOCOL_VERSION,
            basket: basket.to_vec(),
            top_k,
            budget_ms,
        });
        self.round_trip(&req)
    }

    /// Sends N baskets in one frame and decodes the per-basket
    /// answers. One round trip scores the whole batch, amortizing
    /// framing, syscalls, and shard-queue overhead across it.
    pub fn query_batch(
        &mut self,
        baskets: &[Vec<ItemId>],
        top_k: u32,
        budget_ms: u32,
    ) -> Result<BatchReply> {
        let payload = self.query_batch_raw(baskets, top_k, budget_ms)?;
        match decode_response(&payload)? {
            Response::ResultsBatch { epoch, answers } => Ok(BatchReply::Results { epoch, answers }),
            Response::Overloaded { retry_after_ms } => {
                Ok(BatchReply::Overloaded { retry_after_ms })
            }
            other => Err(unexpected("batch results", other)),
        }
    }

    /// Raw-payload twin of [`Client::query_batch`] for transcripts.
    pub fn query_batch_raw(
        &mut self,
        baskets: &[Vec<ItemId>],
        top_k: u32,
        budget_ms: u32,
    ) -> Result<Vec<u8>> {
        let req = encode_request(&Request::QueryBatch {
            version: PROTOCOL_VERSION,
            baskets: baskets.to_vec(),
            top_k,
            budget_ms,
        });
        self.round_trip(&req)
    }

    /// Asks the server to hot-swap in the store file at `path`
    /// (server-side path); returns the new epoch. Not retried: a
    /// connection lost mid-reload leaves the outcome unknown.
    pub fn reload(&mut self, path: &str) -> Result<u64> {
        let req = encode_request(&Request::Reload {
            version: PROTOCOL_VERSION,
            path: path.to_string(),
        });
        let payload = self.round_trip_once(&req)?;
        match decode_response(&payload)? {
            Response::ReloadAck { epoch } => Ok(epoch),
            other => Err(unexpected("reload-ack", other)),
        }
    }

    /// Asks the server to stop; returns once the ack arrives.
    pub fn shutdown(mut self) -> Result<()> {
        write_frame(&mut self.stream, &encode_request(&Request::Shutdown))?;
        let payload = self.read_response_payload()?;
        match decode_response(&payload)? {
            Response::ShutdownAck => Ok(()),
            other => Err(Error::Protocol(format!(
                "expected shutdown-ack, got {other:?}"
            ))),
        }
    }

    /// One idempotent request round trip with the transparent
    /// reconnect-and-retry-once policy for retryable failures.
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        match self.round_trip_once(request) {
            Err(e) if e.is_retryable() => {
                self.stream = open(&self.addr, self.deadline, &self.retry)?;
                self.round_trip_once(request)
            }
            other => other,
        }
    }

    fn round_trip_once(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        write_frame(&mut self.stream, request)?;
        self.read_response_payload()
    }

    fn read_response_payload(&mut self) -> Result<Vec<u8>> {
        match read_frame(&mut self.stream)? {
            // A clean close where a response was owed is a transient
            // server-side condition (reset, restart): retryable I/O,
            // not a protocol violation.
            Some(p) => Ok(p),
            None => Err(Error::io(
                "server closed the connection mid-request",
                std::io::Error::from(std::io::ErrorKind::UnexpectedEof),
            )),
        }
    }
}

fn unexpected(wanted: &str, got: Response) -> Error {
    match got {
        Response::Error(msg) => Error::Protocol(format!("server error: {msg}")),
        Response::VersionMismatch { server, client } => Error::Protocol(format!(
            "protocol version mismatch: server speaks v{server}, client sent v{client}"
        )),
        other => Error::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}
