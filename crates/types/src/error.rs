//! Shared error type for the workspace.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the mining library and its substrates.
#[derive(Debug)]
pub enum Error {
    /// A classification hierarchy failed validation (cycle, duplicate
    /// parent, unknown item, ...).
    InvalidTaxonomy(String),
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// An I/O error from the storage substrate, with context.
    Io {
        /// What the storage layer was doing when the error occurred.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A corrupt or truncated record was found while decoding a partition.
    Corrupt(String),
    /// A simulated cluster node panicked or disconnected.
    NodeFailure {
        /// Identifier of the failed node.
        node: usize,
        /// Human-readable description of the failure.
        reason: String,
    },
    /// The coordinator protocol was violated (e.g. a reduce with a
    /// mismatched number of contributions).
    Protocol(String),
    /// A collective operation was abandoned because a peer failed; the
    /// node id identifies the *first* poisoner, so a cascade of
    /// secondary failures still reports its root cause.
    Poisoned {
        /// Node that poisoned the run.
        node: usize,
    },
    /// A node exceeded its deadline waiting on a collective or a
    /// message, indicating a hung or unresponsive peer.
    Timeout {
        /// Node that observed the expired deadline (the victim, not
        /// necessarily the hung peer).
        node: usize,
        /// The operation that was waited on (`"barrier"`, `"recv"`, ...).
        op: String,
    },
    /// A server shed the request before doing any work; the caller
    /// should back off for the suggested time and retry.
    Overloaded {
        /// The server's suggested backoff.
        retry_after_ms: u32,
    },
}

impl Error {
    /// Convenience constructor wrapping an [`std::io::Error`] with context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io {
            context: context.into(),
            source,
        }
    }

    /// Whether an operation that failed with this error may be retried.
    ///
    /// Transient faults — I/O hiccups, expired deadlines and shed
    /// requests — are retryable; everything else (corruption, configuration problems,
    /// protocol violations, node failures) is a fatal property of the
    /// run and retrying would only repeat it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::Io { .. } | Error::Timeout { .. } | Error::Overloaded { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidTaxonomy(msg) => write!(f, "invalid taxonomy: {msg}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Io { context, source } => write!(f, "i/o error while {context}: {source}"),
            Error::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            Error::NodeFailure { node, reason } => {
                write!(f, "cluster node {node} failed: {reason}")
            }
            Error::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            Error::Poisoned { node } => {
                write!(f, "collective poisoned by node {node}: a peer failed")
            }
            Error::Timeout { node, op } => {
                write!(f, "cluster node {node} timed out waiting for {op}")
            }
            Error::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded: retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = Error::InvalidTaxonomy("item 3 has two parents".into());
        assert_eq!(e.to_string(), "invalid taxonomy: item 3 has two parents");
        let e = Error::NodeFailure {
            node: 7,
            reason: "worker thread panicked".into(),
        };
        assert_eq!(
            e.to_string(),
            "cluster node 7 failed: worker thread panicked"
        );
        let e = Error::Poisoned { node: 2 };
        assert_eq!(
            e.to_string(),
            "collective poisoned by node 2: a peer failed"
        );
        let e = Error::Timeout {
            node: 4,
            op: "barrier".into(),
        };
        assert_eq!(
            e.to_string(),
            "cluster node 4 timed out waiting for barrier"
        );
        let e = Error::Overloaded { retry_after_ms: 25 };
        assert_eq!(e.to_string(), "server overloaded: retry after 25 ms");
    }

    #[test]
    fn retryable_classification() {
        let io = Error::io("probe", std::io::Error::other("flaky"));
        assert!(io.is_retryable());
        assert!(Error::Timeout {
            node: 0,
            op: "recv".into()
        }
        .is_retryable());
        assert!(Error::Overloaded { retry_after_ms: 1 }.is_retryable());

        assert!(!Error::Corrupt("bad checksum".into()).is_retryable());
        assert!(!Error::InvalidConfig("zero nodes".into()).is_retryable());
        assert!(!Error::InvalidTaxonomy("cycle".into()).is_retryable());
        assert!(!Error::Protocol("mismatched reduce".into()).is_retryable());
        assert!(!Error::Poisoned { node: 1 }.is_retryable());
        assert!(!Error::NodeFailure {
            node: 1,
            reason: "panicked".into()
        }
        .is_retryable());
    }

    #[test]
    fn io_error_preserves_source() {
        let inner = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e = Error::io("reading partition 3", inner);
        assert!(e.to_string().contains("reading partition 3"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
