//! The serving wire protocol: tiny, length-prefixed, checksummed.
//!
//! A **frame** is `u32 payload-length | payload | u64 FxHash checksum`
//! (little-endian, checksum over the payload bytes). The length is
//! validated against [`MAX_FRAME_BYTES`] *before* any allocation, on
//! both the read and the write path — an adversarial or corrupt length
//! field can neither balloon memory nor panic. Every frame read in this
//! crate goes through [`read_frame`]; clippy's `disallowed_methods`
//! enforces it.
//!
//! The **payload** is a tag byte plus a body:
//!
//! | tag  | message                                              |
//! |------|------------------------------------------------------|
//! | 0x01 | `Query` — `u32 top_k`, `u32 n`, `n × u32` item ids   |
//! | 0x02 | `Results` — `u32 n`, then per recommendation the     |
//! |      | consequent (`u32 m`, `m × u32`), `u64` support,      |
//! |      | `f64` confidence bits, `f64` score bits              |
//! | 0x03 | `Error` — `u32` length + UTF-8 message               |
//! | 0x04 | `Shutdown` (no body)                                 |
//! | 0x05 | `ShutdownAck` (no body)                              |
//! | 0x06 | `QueryV2` — `u16 version`, `u32 top_k`,              |
//! |      | `u32 budget_ms`, `u32 n`, `n × u32` item ids         |
//! | 0x07 | `ResultsV2` — `u64 epoch`, `u32 shards_missing`,     |
//! |      | then a `Results` body                                |
//! | 0x08 | `Reload` — `u16 version`, `u32` length + UTF-8 path  |
//! | 0x09 | `ReloadAck` — `u64 epoch`                            |
//! | 0x0A | `Overloaded` — `u32 retry_after_ms`                  |
//! | 0x0B | `VersionMismatch` — `u16 server`, `u16 client`       |
//!
//! | 0x0C | `QueryBatch` — `u16 version`, `u32 top_k`,           |
//! |      | `u32 budget_ms`, `u32 count`, then `count` baskets   |
//! |      | (`u32 n`, `n × u32` item ids each)                   |
//! | 0x0D | `ResultsBatch` — `u64 epoch`, `u32 count`, then per  |
//! |      | basket `u32 shards_missing` + a `Results` body       |
//!
//! Tags 0x01–0x05 are the frozen **v1** surface: their bytes are
//! identical to the pre-epoch protocol, so fault-free v1 transcripts
//! stay byte-comparable across this change; tags 0x06–0x0B are the
//! frozen first-generation v2 surface, pinned the same way.
//! `QueryBatch` scores up to [`MAX_BATCH`] baskets in one round trip
//! against **one** epoch snapshot; answer `i` of a `ResultsBatch` is
//! exactly what the same basket would get from its own `QueryV2`, so
//! batching changes throughput, never answers. The v2 tags carry an
//! explicit [`PROTOCOL_VERSION`]; a server that sees a v2 frame with a
//! version it does not speak answers a typed `VersionMismatch` frame
//! and keeps the connection open rather than hanging up on old (or too
//! new) clients.
//!
//! Malformed payloads are [`Error::Protocol`]; a failed frame checksum
//! or a mid-frame disconnect is [`Error::Corrupt`]; an expired socket
//! deadline is [`Error::Timeout`] (retryable, like every other deadline
//! in the workspace). Encoding is deterministic: the same message
//! always produces the same bytes, which is what makes load-generator
//! transcripts byte-comparable across runs.

use crate::engine::Recommendation;
use gar_types::bytes::{unseal, Cursor};
use gar_types::hash::checksum;
use gar_types::{Error, ItemId, Itemset, Result};
use std::io::{Read, Write};

/// Hard upper bound on a frame payload. Reads reject bigger length
/// fields before allocating; writes refuse to emit them.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Version spoken by this build for the v2 frames. v1 frames carry no
/// version field and are accepted forever.
pub const PROTOCOL_VERSION: u16 = 2;

/// Upper bounds on list lengths inside payloads (stricter than what
/// would merely fit in a frame, so garbage fails early and clearly).
const MAX_BASKET_LEN: usize = 1 << 16;
const MAX_RESULTS: usize = 1 << 16;
const MAX_PATH_BYTES: usize = 1 << 12;

/// Most baskets one `QueryBatch` frame may carry.
pub const MAX_BATCH: usize = 1 << 10;

const TAG_QUERY: u8 = 0x01;
const TAG_RESULTS: u8 = 0x02;
const TAG_ERROR: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
const TAG_SHUTDOWN_ACK: u8 = 0x05;
const TAG_QUERY_V2: u8 = 0x06;
const TAG_RESULTS_V2: u8 = 0x07;
const TAG_RELOAD: u8 = 0x08;
const TAG_RELOAD_ACK: u8 = 0x09;
const TAG_OVERLOADED: u8 = 0x0A;
const TAG_VERSION_MISMATCH: u8 = 0x0B;
const TAG_QUERY_BATCH: u8 = 0x0C;
const TAG_RESULTS_BATCH: u8 = 0x0D;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score a basket, return the best `top_k` consequents.
    Query {
        /// Raw (unextended) item ids; any order, duplicates allowed.
        basket: Vec<ItemId>,
        /// Maximum number of recommendations wanted.
        top_k: u32,
    },
    /// Ask the server to drain and exit (acknowledged, then honored).
    Shutdown,
    /// v2 query: like `Query`, plus the protocol version the client
    /// speaks and a latency budget the server may shed against
    /// (`budget_ms == 0` means "no budget, use the server deadline").
    QueryV2 {
        /// Version the client speaks; answered with `VersionMismatch`
        /// (not a closed connection) when the server cannot serve it.
        version: u16,
        /// Raw (unextended) item ids; any order, duplicates allowed.
        basket: Vec<ItemId>,
        /// Maximum number of recommendations wanted.
        top_k: u32,
        /// Remaining client deadline budget in milliseconds.
        budget_ms: u32,
    },
    /// Admin: load the store file at `path`, validate it, and hot-swap
    /// it in as the next epoch. Rejected loads leave the old epoch
    /// serving.
    Reload {
        /// Version the client speaks (see `QueryV2::version`).
        version: u16,
        /// Server-side path of the new GRUL store file.
        path: String,
    },
    /// Score up to [`MAX_BATCH`] baskets in one round trip, all
    /// against the same epoch snapshot. Answer `i` equals what basket
    /// `i` would get from its own `QueryV2` with the same `top_k`.
    QueryBatch {
        /// Version the client speaks (see `QueryV2::version`).
        version: u16,
        /// The baskets, answered in order.
        baskets: Vec<Vec<ItemId>>,
        /// Maximum number of recommendations wanted per basket.
        top_k: u32,
        /// Latency budget for the whole batch (0 = server deadline).
        budget_ms: u32,
    },
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The scored recommendations, best first.
    Results(Vec<Recommendation>),
    /// The query failed; the connection stays protocol-consistent.
    Error(String),
    /// Shutdown accepted; the server exits after this frame.
    ShutdownAck,
    /// v2 results: which epoch answered and how many shards were
    /// missing (crashed and not yet restarted) when it was computed.
    /// `shards_missing == 0` is a complete answer.
    ResultsV2 {
        /// Epoch of the catalog snapshot that produced `recs`.
        epoch: u64,
        /// Shards that contributed nothing (degraded answer when > 0).
        shards_missing: u32,
        /// The scored recommendations, best first.
        recs: Vec<Recommendation>,
    },
    /// The reload was validated and swapped in as `epoch`.
    ReloadAck {
        /// The new current epoch.
        epoch: u64,
    },
    /// The query was shed before any shard work: the server cannot meet
    /// the deadline budget. Typed and retryable — the client should
    /// back off `retry_after_ms` and try again.
    Overloaded {
        /// Suggested client backoff.
        retry_after_ms: u32,
    },
    /// The request's version field is one the server does not speak;
    /// the connection stays open and v1 frames still work.
    VersionMismatch {
        /// Version the server speaks.
        server: u16,
        /// Version the client sent.
        client: u16,
    },
    /// One answer per `QueryBatch` basket, in request order, all from
    /// the same epoch. A shed batch is answered `Overloaded` as a
    /// whole instead.
    ResultsBatch {
        /// Epoch of the catalog snapshot that produced every answer.
        epoch: u64,
        /// Per-basket answers, in request order.
        answers: Vec<BatchAnswer>,
    },
}

/// One basket's slice of a [`Response::ResultsBatch`]: the same
/// information a standalone `ResultsV2` would carry, minus the shared
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAnswer {
    /// Shards that contributed nothing to this basket (0 = complete).
    pub shards_missing: u32,
    /// The scored recommendations, best first.
    pub recs: Vec<Recommendation>,
}

/// Writes one frame. Refuses payloads above [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(Error::Protocol(format!(
            "refusing to send a {}-byte frame (max {MAX_FRAME_BYTES})",
            payload.len()
        )));
    }
    let io = |e| Error::io("writing frame", e);
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.write_all(&checksum(payload).to_le_bytes()).map_err(io)?;
    w.flush().map_err(io)
}

/// Reads one frame; `Ok(None)` on clean end-of-stream at a frame
/// boundary. The sole frame reader of the crate: the length field is
/// checked against [`MAX_FRAME_BYTES`] before the payload buffer is
/// allocated, and the trailing checksum is verified before the payload
/// is returned.
#[expect(
    clippy::disallowed_methods,
    reason = "the frame codec is the one place that reads a stream"
)]
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "got < header.len() is the loop guard"
        )]
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(Error::Corrupt("frame truncated mid-header".into())),
            Ok(n) => got += n,
            Err(e) => return Err(map_read_err(e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(Error::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte maximum"
        )));
    }
    let mut sealed = vec![0u8; len + 8];
    read_fully(r, &mut sealed)?;
    unseal(&sealed, "frame")?;
    sealed.truncate(len);
    Ok(Some(sealed))
}

#[expect(
    clippy::disallowed_methods,
    reason = "the frame codec is the one place that reads a stream"
)]
fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    let mut got = 0;
    while got < buf.len() {
        #[expect(clippy::indexing_slicing, reason = "got < buf.len() is the loop guard")]
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(Error::Corrupt("frame truncated".into())),
            Ok(n) => got += n,
            Err(e) => return Err(map_read_err(e)),
        }
    }
    Ok(())
}

/// Outcome of one [`FrameBuffer::fill`] from a non-blocking stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStatus {
    /// The stream would block; whatever arrived is buffered.
    Open,
    /// The peer closed: drain [`FrameBuffer::next_frame`], then stop.
    Eof,
}

/// Incremental frame reassembly for the server's readiness loop: bytes
/// go in as the socket delivers them (any fragmentation), complete
/// verified frames come out. The blocking twin of [`read_frame`] with
/// the same guarantees — the length field is validated against
/// [`MAX_FRAME_BYTES`] before a frame is sliced out and the trailing
/// checksum is verified before the payload is surfaced. Lives here so
/// clippy's `disallowed_methods` keeps every stream read inside the codec.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Reads everything currently available from a **non-blocking**
    /// reader into the buffer. Returns [`FillStatus::Eof`] once the
    /// peer has closed; buffered complete frames are still extractable
    /// afterwards.
    #[expect(
        clippy::disallowed_methods,
        reason = "the frame codec is the one place that reads a stream"
    )]
    pub fn fill(&mut self, r: &mut impl Read) -> Result<FillStatus> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match r.read(&mut scratch) {
                Ok(0) => return Ok(FillStatus::Eof),
                Ok(n) => {
                    #[expect(clippy::indexing_slicing, reason = "read contracts n <= len")]
                    self.buf.extend_from_slice(&scratch[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(FillStatus::Open)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::io("reading frame", e)),
            }
        }
    }

    /// Extracts the next complete frame, if one is fully buffered.
    /// Oversize lengths and checksum mismatches are the same errors
    /// [`read_frame`] reports; after an error the stream is no longer
    /// frame-aligned and must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let mut header = [0u8; 4];
        match self.buf.get(..4) {
            Some(h) => header.copy_from_slice(h),
            None => return Ok(None),
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(Error::Protocol(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte maximum"
            )));
        }
        let total = 4 + len + 8;
        let Some(sealed) = self.buf.get(4..total) else {
            return Ok(None); // frame not fully buffered yet
        };
        let payload = unseal(sealed, "frame")?.to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }

    /// Bytes currently buffered (partial-frame backlog).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// Drains and discards whatever is currently readable on a
/// **non-blocking** reader. The server's waker pipe carries meaningless
/// nudge bytes whose only job is to make `poll` return; this empties it
/// without interpreting anything. Lives here so clippy's
/// `disallowed_methods` keeps every stream read inside the codec.
#[expect(
    clippy::disallowed_methods,
    reason = "the frame codec is the one place that reads a stream"
)]
pub fn drain_ready(r: &mut impl Read) {
    let mut scratch = [0u8; 64];
    loop {
        match r.read(&mut scratch) {
            Ok(0) => return, // peer closed; nothing left to drain
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return, // WouldBlock (drained) or a real error
        }
    }
}

/// Socket-deadline expiries become the workspace's retryable
/// [`Error::Timeout`]; everything else stays an I/O error.
fn map_read_err(e: std::io::Error) -> Error {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Error::Timeout {
            node: 0,
            op: "read-frame".into(),
        },
        std::io::ErrorKind::Interrupted => Error::Timeout {
            node: 0,
            op: "read-frame".into(),
        },
        _ => Error::io("reading frame", e),
    }
}

fn push_items(out: &mut Vec<u8>, items: &[ItemId]) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for &it in items {
        out.extend_from_slice(&it.raw().to_le_bytes());
    }
}

/// Encodes a request payload (tag + body; framing is separate).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Query { basket, top_k } => {
            out.push(TAG_QUERY);
            out.extend_from_slice(&top_k.to_le_bytes());
            push_items(&mut out, basket);
        }
        Request::Shutdown => out.push(TAG_SHUTDOWN),
        Request::QueryV2 {
            version,
            basket,
            top_k,
            budget_ms,
        } => {
            out.push(TAG_QUERY_V2);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&top_k.to_le_bytes());
            out.extend_from_slice(&budget_ms.to_le_bytes());
            push_items(&mut out, basket);
        }
        Request::Reload { version, path } => {
            out.push(TAG_RELOAD);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&(path.len() as u32).to_le_bytes());
            out.extend_from_slice(path.as_bytes());
        }
        Request::QueryBatch {
            version,
            baskets,
            top_k,
            budget_ms,
        } => {
            out.push(TAG_QUERY_BATCH);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&top_k.to_le_bytes());
            out.extend_from_slice(&budget_ms.to_le_bytes());
            out.extend_from_slice(&(baskets.len() as u32).to_le_bytes());
            for basket in baskets {
                push_items(&mut out, basket);
            }
        }
    }
    out
}

fn push_recs(out: &mut Vec<u8>, recs: &[Recommendation]) {
    out.extend_from_slice(&(recs.len() as u32).to_le_bytes());
    for rec in recs {
        push_items(out, rec.consequent.items());
        out.extend_from_slice(&rec.support_count.to_le_bytes());
        out.extend_from_slice(&rec.confidence.to_bits().to_le_bytes());
        out.extend_from_slice(&rec.score.to_bits().to_le_bytes());
    }
}

/// Encodes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Results(recs) => {
            out.push(TAG_RESULTS);
            push_recs(&mut out, recs);
        }
        Response::Error(msg) => {
            out.push(TAG_ERROR);
            out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            out.extend_from_slice(msg.as_bytes());
        }
        Response::ShutdownAck => out.push(TAG_SHUTDOWN_ACK),
        Response::ResultsV2 {
            epoch,
            shards_missing,
            recs,
        } => {
            out.push(TAG_RESULTS_V2);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&shards_missing.to_le_bytes());
            push_recs(&mut out, recs);
        }
        Response::ReloadAck { epoch } => {
            out.push(TAG_RELOAD_ACK);
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        Response::Overloaded { retry_after_ms } => {
            out.push(TAG_OVERLOADED);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Response::VersionMismatch { server, client } => {
            out.push(TAG_VERSION_MISMATCH);
            out.extend_from_slice(&server.to_le_bytes());
            out.extend_from_slice(&client.to_le_bytes());
        }
        Response::ResultsBatch { epoch, answers } => {
            out.push(TAG_RESULTS_BATCH);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&(answers.len() as u32).to_le_bytes());
            for answer in answers {
                out.extend_from_slice(&answer.shards_missing.to_le_bytes());
                push_recs(&mut out, &answer.recs);
            }
        }
    }
    out
}

/// A bounded cursor over a frame payload; short reads are protocol
/// errors (the frame checksum already passed, so damage here means a
/// malformed sender).
fn payload_cursor(payload: &[u8]) -> Cursor<'_> {
    Cursor::new(payload, "payload", Error::Protocol)
}

/// A length-prefixed item list of at most `max` items.
fn read_items(c: &mut Cursor<'_>, max: usize, what: &str) -> Result<Vec<ItemId>> {
    let len = c.u32()? as usize;
    if len > max {
        return Err(Error::Protocol(format!(
            "implausible {what} length {len} (max {max})"
        )));
    }
    Ok(c.u32s(len)?.map(ItemId).collect())
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut c = payload_cursor(payload);
    let req = match c.u8()? {
        TAG_QUERY => {
            let top_k = c.u32()?;
            if top_k as usize > MAX_RESULTS {
                return Err(Error::Protocol(format!(
                    "implausible top_k {top_k} (max {MAX_RESULTS})"
                )));
            }
            let basket = read_items(&mut c, MAX_BASKET_LEN, "basket")?;
            Request::Query { basket, top_k }
        }
        TAG_SHUTDOWN => Request::Shutdown,
        TAG_QUERY_V2 => {
            // The version is carried through undecoded on purpose: the
            // server answers `VersionMismatch` for versions it does not
            // speak instead of failing the decode.
            let version = c.u16()?;
            let top_k = c.u32()?;
            if top_k as usize > MAX_RESULTS {
                return Err(Error::Protocol(format!(
                    "implausible top_k {top_k} (max {MAX_RESULTS})"
                )));
            }
            let budget_ms = c.u32()?;
            let basket = read_items(&mut c, MAX_BASKET_LEN, "basket")?;
            Request::QueryV2 {
                version,
                basket,
                top_k,
                budget_ms,
            }
        }
        TAG_RELOAD => {
            let version = c.u16()?;
            let len = c.u32()? as usize;
            if len > MAX_PATH_BYTES {
                return Err(Error::Protocol(format!(
                    "implausible reload path length {len} (max {MAX_PATH_BYTES})"
                )));
            }
            let path = std::str::from_utf8(c.take(len)?)
                .map_err(|_| Error::Protocol("reload path is not UTF-8".into()))?;
            Request::Reload {
                version,
                path: path.to_string(),
            }
        }
        TAG_QUERY_BATCH => {
            let version = c.u16()?;
            let top_k = c.u32()?;
            if top_k as usize > MAX_RESULTS {
                return Err(Error::Protocol(format!(
                    "implausible top_k {top_k} (max {MAX_RESULTS})"
                )));
            }
            let budget_ms = c.u32()?;
            let count = c.u32()? as usize;
            if count > MAX_BATCH {
                return Err(Error::Protocol(format!(
                    "implausible batch size {count} (max {MAX_BATCH})"
                )));
            }
            let mut baskets = Vec::with_capacity(count);
            for _ in 0..count {
                baskets.push(read_items(&mut c, MAX_BASKET_LEN, "basket")?);
            }
            Request::QueryBatch {
                version,
                baskets,
                top_k,
                budget_ms,
            }
        }
        tag => return Err(Error::Protocol(format!("unknown request tag {tag:#04x}"))),
    };
    c.finish()?;
    Ok(req)
}

fn read_recs(c: &mut Cursor<'_>) -> Result<Vec<Recommendation>> {
    let n = c.u32()? as usize;
    if n > MAX_RESULTS {
        return Err(Error::Protocol(format!(
            "implausible result count {n} (max {MAX_RESULTS})"
        )));
    }
    let mut recs = Vec::with_capacity(n);
    for _ in 0..n {
        let items = read_items(c, MAX_BASKET_LEN, "consequent")?;
        if items.is_empty() || items.iter().zip(items.iter().skip(1)).any(|(a, b)| a >= b) {
            return Err(Error::Protocol("consequent items not ascending".into()));
        }
        let support_count = c.u64()?;
        let confidence = f64::from_bits(c.u64()?);
        let score = f64::from_bits(c.u64()?);
        if !confidence.is_finite() || !score.is_finite() {
            return Err(Error::Protocol("non-finite recommendation score".into()));
        }
        recs.push(Recommendation {
            consequent: Itemset::from_sorted(items),
            support_count,
            confidence,
            score,
        });
    }
    Ok(recs)
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut c = payload_cursor(payload);
    let resp = match c.u8()? {
        TAG_RESULTS => Response::Results(read_recs(&mut c)?),
        TAG_ERROR => {
            let len = c.u32()? as usize;
            if len > MAX_FRAME_BYTES {
                return Err(Error::Protocol("implausible error length".into()));
            }
            let msg = std::str::from_utf8(c.take(len)?)
                .map_err(|_| Error::Protocol("error message is not UTF-8".into()))?;
            Response::Error(msg.to_string())
        }
        TAG_SHUTDOWN_ACK => Response::ShutdownAck,
        TAG_RESULTS_V2 => {
            let epoch = c.u64()?;
            if epoch == 0 {
                return Err(Error::Protocol("epoch 0 is never served".into()));
            }
            let shards_missing = c.u32()?;
            if shards_missing as usize > MAX_RESULTS {
                return Err(Error::Protocol(format!(
                    "implausible shards_missing {shards_missing}"
                )));
            }
            Response::ResultsV2 {
                epoch,
                shards_missing,
                recs: read_recs(&mut c)?,
            }
        }
        TAG_RELOAD_ACK => {
            let epoch = c.u64()?;
            if epoch == 0 {
                return Err(Error::Protocol("epoch 0 is never served".into()));
            }
            Response::ReloadAck { epoch }
        }
        TAG_OVERLOADED => Response::Overloaded {
            retry_after_ms: c.u32()?,
        },
        TAG_VERSION_MISMATCH => Response::VersionMismatch {
            server: c.u16()?,
            client: c.u16()?,
        },
        TAG_RESULTS_BATCH => {
            let epoch = c.u64()?;
            if epoch == 0 {
                return Err(Error::Protocol("epoch 0 is never served".into()));
            }
            let count = c.u32()? as usize;
            if count > MAX_BATCH {
                return Err(Error::Protocol(format!(
                    "implausible batch size {count} (max {MAX_BATCH})"
                )));
            }
            let mut answers = Vec::with_capacity(count);
            for _ in 0..count {
                let shards_missing = c.u32()?;
                if shards_missing as usize > MAX_RESULTS {
                    return Err(Error::Protocol(format!(
                        "implausible shards_missing {shards_missing}"
                    )));
                }
                answers.push(BatchAnswer {
                    shards_missing,
                    recs: read_recs(&mut c)?,
                });
            }
            Response::ResultsBatch { epoch, answers }
        }
        tag => return Err(Error::Protocol(format!("unknown response tag {tag:#04x}"))),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::iset;

    fn sample_response() -> Response {
        Response::Results(vec![
            Recommendation {
                consequent: iset![7],
                support_count: 2,
                confidence: 2.0 / 3.0,
                score: 2.0 / 9.0,
            },
            Recommendation {
                consequent: iset![2, 5],
                support_count: 1,
                confidence: 0.5,
                score: 1.0 / 12.0,
            },
        ])
    }

    fn sample_recs() -> Vec<Recommendation> {
        match sample_response() {
            Response::Results(recs) => recs,
            other => panic!("sample_response is Results, got {other:?}"),
        }
    }

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Query {
                basket: vec![ItemId(3), ItemId(9), ItemId(3)],
                top_k: 5,
            },
            Request::Query {
                basket: vec![],
                top_k: 0,
            },
            Request::Shutdown,
            Request::QueryV2 {
                version: PROTOCOL_VERSION,
                basket: vec![ItemId(1), ItemId(4)],
                top_k: 3,
                budget_ms: 250,
            },
            Request::QueryV2 {
                version: 9,
                basket: vec![],
                top_k: 0,
                budget_ms: 0,
            },
            Request::Reload {
                version: PROTOCOL_VERSION,
                path: "/tmp/rules.grul".into(),
            },
            Request::QueryBatch {
                version: PROTOCOL_VERSION,
                baskets: vec![vec![ItemId(3), ItemId(9)], vec![], vec![ItemId(1)]],
                top_k: 5,
                budget_ms: 100,
            },
            Request::QueryBatch {
                version: 9,
                baskets: vec![],
                top_k: 0,
                budget_ms: 0,
            },
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            sample_response(),
            Response::Results(vec![]),
            Response::Error("deadline exceeded".into()),
            Response::ShutdownAck,
            Response::ResultsV2 {
                epoch: 3,
                shards_missing: 1,
                recs: sample_recs(),
            },
            Response::ResultsV2 {
                epoch: 1,
                shards_missing: 0,
                recs: vec![],
            },
            Response::ReloadAck { epoch: 7 },
            Response::Overloaded { retry_after_ms: 25 },
            Response::VersionMismatch {
                server: PROTOCOL_VERSION,
                client: 1,
            },
            Response::ResultsBatch {
                epoch: 5,
                answers: vec![
                    BatchAnswer {
                        shards_missing: 0,
                        recs: sample_recs(),
                    },
                    BatchAnswer {
                        shards_missing: 2,
                        recs: vec![],
                    },
                ],
            },
            Response::ResultsBatch {
                epoch: 1,
                answers: vec![],
            },
        ] {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn v1_encodings_are_frozen() {
        // The v1 tags are a compatibility surface for deployed clients,
        // so these bytes must never change. (Adding v2 tags is fine;
        // renumbering is not.)
        let query = encode_request(&Request::Query {
            basket: vec![ItemId(2), ItemId(7)],
            top_k: 4,
        });
        assert_eq!(
            query,
            [0x01, 4, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0]
        );
        let error = encode_response(&Response::Error("x".into()));
        assert_eq!(error, [0x03, 1, 0, 0, 0, b'x']);
        assert_eq!(encode_request(&Request::Shutdown), [0x04]);
        assert_eq!(encode_response(&Response::ShutdownAck), [0x05]);
    }

    #[test]
    fn batch_encodings_are_pinned() {
        // The batch tags join the frozen surface the moment they ship:
        // byte-exact, like v1_encodings_are_frozen.
        let query = encode_request(&Request::QueryBatch {
            version: 2,
            baskets: vec![vec![ItemId(3)], vec![ItemId(1), ItemId(2)]],
            top_k: 4,
            budget_ms: 7,
        });
        assert_eq!(
            query,
            [
                0x0C, 2, 0, 4, 0, 0, 0, 7, 0, 0, 0, 2, 0, 0, 0, // header
                1, 0, 0, 0, 3, 0, 0, 0, // basket [3]
                2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, // basket [1, 2]
            ]
        );
        let results = encode_response(&Response::ResultsBatch {
            epoch: 3,
            answers: vec![BatchAnswer {
                shards_missing: 1,
                recs: vec![],
            }],
        });
        assert_eq!(
            results,
            [0x0D, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    /// A reader that serves one byte per `fill` call, then signals
    /// `WouldBlock` — the worst-case fragmentation a non-blocking
    /// socket can produce.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        served: bool,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            if self.served {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.served = true;
            if let (Some(dst), Some(&src)) = (buf.first_mut(), self.data.get(self.pos)) {
                *dst = src;
                self.pos += 1;
                Ok(1)
            } else {
                Ok(0)
            }
        }
    }

    #[test]
    fn frame_buffer_reassembles_one_byte_dribbles() {
        let payloads = [
            encode_response(&sample_response()),
            encode_request(&Request::Shutdown),
            encode_request(&Request::QueryBatch {
                version: PROTOCOL_VERSION,
                baskets: vec![vec![ItemId(1)], vec![ItemId(2), ItemId(3)]],
                top_k: 3,
                budget_ms: 0,
            }),
        ];
        let mut framed = Vec::new();
        for p in &payloads {
            write_frame(&mut framed, p).unwrap();
        }
        let mut dribble = Dribble {
            data: &framed,
            pos: 0,
            served: false,
        };
        let mut fb = FrameBuffer::new();
        let mut out = Vec::new();
        loop {
            dribble.served = false;
            let status = fb.fill(&mut dribble).unwrap();
            while let Some(frame) = fb.next_frame().unwrap() {
                out.push(frame);
            }
            if status == FillStatus::Eof {
                break;
            }
        }
        assert_eq!(out, payloads.to_vec());
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_rejects_corruption_like_the_blocking_reader() {
        let payload = encode_response(&sample_response());
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        // Flip one payload byte: the checksum must catch it.
        let mut bad = framed.clone();
        if let Some(b) = bad.get_mut(6) {
            *b ^= 0xFF;
        }
        let mut fb = FrameBuffer::new();
        fb.fill(&mut std::io::Cursor::new(&bad)).unwrap();
        assert!(matches!(fb.next_frame(), Err(Error::Corrupt(_))));
        // An oversize length field fails before any allocation.
        let mut fb = FrameBuffer::new();
        fb.fill(&mut std::io::Cursor::new(&(1u32 << 30).to_le_bytes()))
            .unwrap();
        assert!(matches!(fb.next_frame(), Err(Error::Protocol(_))));
        // A partial frame is simply not ready yet.
        let cut = framed.len() - 1;
        let mut fb = FrameBuffer::new();
        fb.fill(&mut std::io::Cursor::new(&framed[..cut])).unwrap();
        assert_eq!(fb.next_frame().unwrap(), None);
        assert_eq!(fb.buffered(), cut);
        // The missing byte completes it.
        fb.fill(&mut std::io::Cursor::new(&framed[cut..])).unwrap();
        assert_eq!(fb.next_frame().unwrap(), Some(payload));
    }

    #[test]
    fn frame_round_trips_through_a_stream() {
        let payload = encode_request(&Request::Shutdown);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
        // Clean EOF at the frame boundary.
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversize_length_field_is_rejected_before_allocation() {
        // A header claiming a 1 GiB payload followed by nothing: the
        // reader must fail on the length check, not try to allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(
            matches!(&err, Error::Protocol(m) if m.contains("exceeds")),
            "{err:?}"
        );
    }

    #[test]
    fn oversize_payload_is_refused_on_write() {
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        let err = write_frame(&mut Vec::new(), &big).unwrap_err();
        assert!(matches!(err, Error::Protocol(_)), "{err:?}");
    }

    #[test]
    fn every_frame_truncation_is_a_clean_error() {
        let payload = encode_response(&sample_response());
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        // len 0 is a clean EOF (None); every other cut must error.
        for len in 1..frame.len() {
            let got = read_frame(&mut std::io::Cursor::new(&frame[..len]));
            let err = got.expect_err(&format!("truncation at {len} decoded"));
            assert!(
                matches!(err, Error::Corrupt(_) | Error::Protocol(_)),
                "truncation at {len}: {err:?}"
            );
        }
    }

    #[test]
    fn every_frame_byte_flip_is_detected() {
        // One frame per protocol generation — the v2 tags run through
        // the same every-byte-flip harness as the originals.
        let payloads = [
            encode_request(&Request::Query {
                basket: vec![ItemId(1), ItemId(2), ItemId(3)],
                top_k: 4,
            }),
            encode_request(&Request::QueryV2 {
                version: PROTOCOL_VERSION,
                basket: vec![ItemId(1), ItemId(2), ItemId(3)],
                top_k: 4,
                budget_ms: 100,
            }),
            encode_request(&Request::Reload {
                version: PROTOCOL_VERSION,
                path: "/tmp/rules.grul".into(),
            }),
            encode_response(&Response::ResultsV2 {
                epoch: 2,
                shards_missing: 1,
                recs: sample_recs(),
            }),
            encode_response(&Response::ReloadAck { epoch: 2 }),
            encode_response(&Response::Overloaded { retry_after_ms: 25 }),
            encode_response(&Response::VersionMismatch {
                server: PROTOCOL_VERSION,
                client: 1,
            }),
            encode_request(&Request::QueryBatch {
                version: PROTOCOL_VERSION,
                baskets: vec![vec![ItemId(1), ItemId(2)], vec![ItemId(3)]],
                top_k: 4,
                budget_ms: 100,
            }),
            encode_response(&Response::ResultsBatch {
                epoch: 2,
                answers: vec![BatchAnswer {
                    shards_missing: 1,
                    recs: sample_recs(),
                }],
            }),
        ];
        for payload in payloads {
            let mut frame = Vec::new();
            write_frame(&mut frame, &payload).unwrap();
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0xFF;
                match read_frame(&mut std::io::Cursor::new(&bad)) {
                    // A header flip may shrink the claimed length so a
                    // checksum-valid prefix cannot result; a payload or
                    // checksum flip must fail the checksum; a length flip
                    // upward must truncate or exceed the cap. Never Ok.
                    Err(Error::Corrupt(_)) | Err(Error::Protocol(_)) => {}
                    other => panic!("flip at {i}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_v2_payload_truncation_is_a_clean_error() {
        // Truncations *inside* a checksum-valid frame exercise the
        // cursor bounds of the new decoders.
        let payloads = [
            encode_request(&Request::QueryV2 {
                version: PROTOCOL_VERSION,
                basket: vec![ItemId(5)],
                top_k: 2,
                budget_ms: 9,
            }),
            encode_request(&Request::Reload {
                version: PROTOCOL_VERSION,
                path: "r.grul".into(),
            }),
            encode_response(&Response::ResultsV2 {
                epoch: 4,
                shards_missing: 0,
                recs: sample_recs(),
            }),
            encode_response(&Response::ReloadAck { epoch: 4 }),
            encode_response(&Response::Overloaded { retry_after_ms: 1 }),
            encode_response(&Response::VersionMismatch {
                server: PROTOCOL_VERSION,
                client: 3,
            }),
            encode_request(&Request::QueryBatch {
                version: PROTOCOL_VERSION,
                baskets: vec![vec![ItemId(5)], vec![ItemId(6), ItemId(7)]],
                top_k: 2,
                budget_ms: 9,
            }),
            encode_response(&Response::ResultsBatch {
                epoch: 4,
                answers: vec![
                    BatchAnswer {
                        shards_missing: 0,
                        recs: sample_recs(),
                    },
                    BatchAnswer {
                        shards_missing: 0,
                        recs: vec![],
                    },
                ],
            }),
        ];
        for payload in payloads {
            for len in 0..payload.len() {
                let req = decode_request(&payload[..len]);
                let resp = decode_response(&payload[..len]);
                assert!(req.is_err() && resp.is_err(), "truncation at {len} decoded");
            }
        }
    }

    #[test]
    fn garbage_payloads_are_protocol_errors_never_panics() {
        for payload in [
            &[][..],
            &[0xFF][..],
            &[TAG_QUERY][..],
            &[TAG_QUERY, 1, 0, 0, 0][..],
            &[TAG_RESULTS, 0xFF, 0xFF, 0xFF, 0xFF][..],
            &[TAG_ERROR, 10, 0, 0, 0, b'h', b'i'][..],
            &[TAG_SHUTDOWN, 0][..], // trailing garbage
            &[TAG_QUERY_V2, 2][..],
            &[TAG_QUERY_V2, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF][..],
            &[TAG_RELOAD, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF][..],
            &[TAG_RELOAD, 2, 0, 2, 0, 0, 0, 0xC3][..], // bad UTF-8
            &[TAG_RESULTS_V2, 1, 0, 0, 0, 0, 0, 0, 0][..],
            &[
                TAG_RESULTS_V2,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
            ][..], // epoch 0
            &[TAG_RELOAD_ACK, 9][..],
            &[TAG_OVERLOADED][..],
            &[TAG_VERSION_MISMATCH, 2, 0][..],
            &[TAG_VERSION_MISMATCH, 2, 0, 1, 0, 9][..], // trailing garbage
            &[TAG_QUERY_BATCH, 2][..],
            // Implausible batch count (0xFFFFFFFF baskets).
            &[
                TAG_QUERY_BATCH,
                2,
                0,
                5,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0xFF,
                0xFF,
                0xFF,
                0xFF,
            ][..],
            // Batch of one basket, then nothing: truncated mid-basket.
            &[TAG_QUERY_BATCH, 2, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0][..],
            &[TAG_RESULTS_BATCH, 1, 0, 0, 0][..],
            // Epoch 0 is never served, batch or not.
            &[TAG_RESULTS_BATCH, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0][..],
        ] {
            let req = decode_request(payload);
            let resp = decode_response(payload);
            assert!(req.is_err() || resp.is_err(), "{payload:?}");
            for e in [req.err(), resp.err()].into_iter().flatten() {
                assert!(matches!(e, Error::Protocol(_)), "{payload:?}: {e:?}");
            }
        }
    }

    #[test]
    fn implausible_basket_length_is_rejected() {
        let mut payload = vec![TAG_QUERY];
        payload.extend_from_slice(&5u32.to_le_bytes());
        payload.extend_from_slice(&(MAX_BASKET_LEN as u32 + 1).to_le_bytes());
        let err = decode_request(&payload).unwrap_err();
        assert!(matches!(err, Error::Protocol(_)), "{err:?}");
    }
}
