//! The unified error type of the session and experiment layers.
//!
//! Before the serve layer existed, every failure inside a sweep was a panic:
//! worker panics were re-raised by the executor, drivers `expect`ed invariants,
//! and the CLI died with a backtrace.  A daemon cannot afford that — a bad
//! request or a corrupt cache entry must come back over the wire as a typed
//! error while the session keeps serving other clients.  [`VliwError`] is that
//! type: every fallible session/experiment API returns it, and it serializes
//! to a `{kind, message}` wire object that the protocol layer ships verbatim.
//!
//! Deserialization is deliberately lossy: a client cannot (and need not)
//! rebuild a structured [`SchedError`] from the wire, so every received error
//! lands in [`VliwError::Remote`] with the original kind and message preserved.
//! `Display` of a round-tripped error equals `Display` of the original, which
//! is the property the persistent store and the tests rely on.

use std::io;

use serde::{de, json, Deserialize, Serialize, Value};
use vliw_sched::SchedError;

/// Any failure of the session, experiment, persistence or protocol layers.
#[derive(Debug, Clone, PartialEq)]
pub enum VliwError {
    /// A loop failed to schedule (the one *expected* failure of the pipeline).
    Sched(SchedError),
    /// A sweep worker panicked; `index` is the lowest corpus index that did.
    WorkerPanic {
        /// Corpus index of the loop whose worker panicked.
        index: usize,
        /// The original panic payload, rendered to text.
        message: String,
    },
    /// An internal invariant did not hold (the typed replacement for `expect`).
    Internal(String),
    /// An I/O failure (socket, cache file, listener).
    Io(String),
    /// A persistent-store entry failed verification (bad digest, wrong
    /// version, truncated or unparsable JSON).  Callers treat this as a miss.
    Corrupt(String),
    /// A malformed protocol frame or envelope.
    Protocol(String),
    /// A syntactically valid request the server cannot serve (unknown
    /// experiment, mismatched session parameters).
    InvalidRequest(String),
    /// An error received over the wire, kind and message preserved verbatim.
    Remote {
        /// The `kind` tag the sender serialized.
        kind: String,
        /// The sender's rendered message.
        message: String,
    },
}

impl VliwError {
    /// Creates an [`VliwError::Internal`] from a message.
    pub fn internal(message: impl Into<String>) -> Self {
        VliwError::Internal(message.into())
    }

    /// The stable kind tag used on the wire and in the persistent store.
    pub fn kind(&self) -> &str {
        match self {
            VliwError::Sched(_) => "sched",
            VliwError::WorkerPanic { .. } => "worker_panic",
            VliwError::Internal(_) => "internal",
            VliwError::Io(_) => "io",
            VliwError::Corrupt(_) => "corrupt",
            VliwError::Protocol(_) => "protocol",
            VliwError::InvalidRequest(_) => "invalid_request",
            VliwError::Remote { kind, .. } => kind,
        }
    }

    /// True for errors that mean "this loop does not schedule" rather than
    /// "something broke": [`VliwError::Sched`] and its wire echo.
    pub fn is_sched(&self) -> bool {
        matches!(self, VliwError::Sched(_))
            || matches!(self, VliwError::Remote { kind, .. } if kind == "sched")
    }
}

impl std::fmt::Display for VliwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // `Sched` and `Remote` print the underlying message verbatim, so an
            // error that round-trips through the store or the wire renders
            // identically to the original.
            VliwError::Sched(e) => write!(f, "{e}"),
            VliwError::WorkerPanic { index, message } => {
                write!(f, "experiment worker panicked at loop index {index}: {message}")
            }
            VliwError::Internal(m) => write!(f, "internal error: {m}"),
            VliwError::Io(m) => write!(f, "i/o error: {m}"),
            VliwError::Corrupt(m) => write!(f, "corrupt cache entry: {m}"),
            VliwError::Protocol(m) => write!(f, "protocol error: {m}"),
            VliwError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            VliwError::Remote { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for VliwError {}

impl From<SchedError> for VliwError {
    fn from(e: SchedError) -> Self {
        VliwError::Sched(e)
    }
}

impl From<std::io::Error> for VliwError {
    fn from(e: std::io::Error) -> Self {
        VliwError::Io(e.to_string())
    }
}

impl Serialize for VliwError {
    fn write_json(&self, w: &mut json::Writer<'_>) -> io::Result<()> {
        w.object(|o| {
            o.field("kind", self.kind())?;
            o.field("message", &self.to_string())
        })
    }
}

impl Deserialize for VliwError {
    fn deserialize(v: &Value) -> Result<Self, de::Error> {
        let entries = v.as_object().ok_or_else(|| de::Error::unexpected("error object", v))?;
        let kind: String = de::field(entries, "kind")?;
        let message: String = de::field(entries, "message")?;
        Ok(VliwError::Remote { kind, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_of_wire_round_trip_is_stable() {
        let errors = [
            VliwError::Sched(SchedError::EmptyGraph),
            VliwError::WorkerPanic { index: 7, message: "boom".into() },
            VliwError::internal("simulated loops compiled"),
            VliwError::Io("connection reset".into()),
            VliwError::Corrupt("bad digest".into()),
            VliwError::Protocol("frame too large".into()),
            VliwError::InvalidRequest("unknown experiment `fig5`".into()),
        ];
        for e in errors {
            let back = VliwError::deserialize(&e.serialize()).expect("round trip");
            assert_eq!(back.to_string(), e.to_string(), "{e:?}");
            assert_eq!(back.kind(), e.kind());
        }
    }

    #[test]
    fn the_wire_form_is_pinned() {
        // Written by the encoder that built a `Value` tree first.
        let e = VliwError::InvalidRequest("unknown experiment \"fig5\"\n".to_string());
        assert_eq!(
            serde_json::to_string(&e).unwrap(),
            r#"{"kind":"invalid_request","message":"invalid request: unknown experiment \"fig5\"\n"}"#
        );
        assert_eq!(
            serde_json::to_string_pretty(&e).unwrap(),
            "{\n  \"kind\": \"invalid_request\",\
             \n  \"message\": \"invalid request: unknown experiment \\\"fig5\\\"\\n\"\n}"
        );
        let panic = VliwError::WorkerPanic { index: 19, message: "II search diverged".into() };
        assert_eq!(
            serde_json::to_string(&panic).unwrap(),
            r#"{"kind":"worker_panic","message":"experiment worker panicked at loop index 19: II search diverged"}"#
        );
    }

    #[test]
    fn sched_errors_are_recognised_after_the_round_trip() {
        let e = VliwError::Sched(SchedError::EmptyGraph);
        assert!(e.is_sched());
        let back = VliwError::deserialize(&e.serialize()).unwrap();
        assert!(back.is_sched());
        assert!(!VliwError::internal("x").is_sched());
    }

    #[test]
    fn worker_panic_message_matches_the_executor_diagnostic() {
        let e = VliwError::WorkerPanic { index: 19, message: "II search diverged".into() };
        let s = e.to_string();
        assert!(s.contains("loop index 19"));
        assert!(s.contains("II search diverged"));
    }
}
