//! The `vliw-serve` wire protocol: length-prefixed JSON frames over any byte
//! stream.
//!
//! A connection is a sequence of *frames* in each direction.  Every frame is a
//! 4-byte big-endian length followed by exactly that many bytes of UTF-8 JSON
//! (compact form — the frame boundary, not whitespace, delimits documents).
//! Clients send [`RequestEnvelope`]s and receive [`ResponseEnvelope`]s; the
//! `id` field pairs them up, so a client may pipeline several requests on one
//! connection and match answers as they arrive.  The daemon answers every
//! request — failures travel as [`WireResponse::Error`] carrying a
//! [`VliwError`] (which deserializes client-side as [`VliwError::Remote`],
//! keeping the server's error kind and message while staying honest about
//! where the failure happened).
//!
//! The protocol is versioned ([`PROTOCOL_VERSION`]); the version travels in
//! [`ServerInfo`] so a client can refuse to talk to a daemon it does not
//! understand before submitting work.  Frames are capped at
//! [`MAX_FRAME_BYTES`] in both directions: a corrupt or malicious length
//! prefix must not make either side allocate gigabytes.
//!
//! Everything here is transport-agnostic (`Read`/`Write`), so the same code
//! serves Unix sockets, TCP sockets and the in-process `Vec<u8>` pipes the
//! tests use.

use std::io::{ErrorKind, IoSlice, Read, Write};

use serde::{de, json, Deserialize, Serialize, Value};

use crate::error::VliwError;
use crate::experiments::{ExperimentRequest, ExperimentResponse};
use crate::session::SessionStats;

/// Version of the wire protocol; bumped on any incompatible change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a single frame's payload, in bytes.  Large enough for any
/// full-corpus report, small enough that a corrupt length prefix cannot drive
/// either side out of memory.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Writes one frame: 4-byte big-endian length, then the compact JSON of
/// `value`.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, value: &Value) -> Result<(), VliwError> {
    write_message(w, value)
}

/// Reads one frame, or `None` on a clean end-of-stream (the peer closed the
/// connection *between* frames).  A stream that ends mid-frame is a protocol
/// error, as is a frame above [`MAX_FRAME_BYTES`] or one that is not valid
/// JSON.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Option<Value>, VliwError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(VliwError::Protocol("connection closed mid-frame header".to_string()))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(VliwError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            VliwError::Protocol("connection closed mid-frame".to_string())
        } else {
            VliwError::from(e)
        }
    })?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| VliwError::Protocol(format!("frame is not UTF-8: {e}")))?;
    serde_json::from_str::<Value>(text)
        .map(Some)
        .map_err(|e| VliwError::Protocol(format!("frame is not valid JSON: {e}")))
}

/// Serializes `message` and writes it as one frame.
///
/// The payload is encoded in full before anything is sent, because the length
/// prefix comes first; so a message that cannot be encoded (a NaN or an
/// infinity) is a protocol error that writes no byte, and the stream stays
/// usable.  Header and payload then go out in one vectored write, so the peer
/// never wakes for a header whose payload is still in flight, and the payload
/// is never copied behind the header.  Short writes resume where they stopped.
pub fn write_message<W: Write + ?Sized, T: Serialize + ?Sized>(
    w: &mut W,
    message: &T,
) -> Result<(), VliwError> {
    let text = serde_json::to_string(message).map_err(|e| VliwError::Protocol(e.to_string()))?;
    let bytes = text.as_bytes();
    let len =
        u32::try_from(bytes.len()).ok().filter(|len| *len <= MAX_FRAME_BYTES).ok_or_else(|| {
            VliwError::Protocol(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                bytes.len()
            ))
        })?;
    let header = len.to_be_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(bytes)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame and deserializes it, or `None` on a clean end-of-stream.
pub fn read_message<R: Read + ?Sized, T: Deserialize>(r: &mut R) -> Result<Option<T>, VliwError> {
    match read_frame(r)? {
        Some(value) => T::deserialize(&value)
            .map(Some)
            .map_err(|e| VliwError::Protocol(format!("malformed message: {e}"))),
        None => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------------

/// What a daemon is serving: the session parameters a client must agree with
/// before submitting work, plus the protocol and store versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerInfo {
    /// Number of loops in the daemon's corpus.
    pub corpus_size: usize,
    /// Corpus generator seed.
    pub seed: u64,
    /// Worker threads of the daemon's session executor.
    pub threads: usize,
    /// Wire protocol version ([`PROTOCOL_VERSION`]).
    pub protocol_version: u32,
    /// On-disk artifact store format version
    /// ([`crate::session::STORE_VERSION`]).
    pub store_version: u32,
    /// Whether the daemon's session persists artifacts to disk.
    pub persistent: bool,
}

/// A client request body.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Describe the daemon's session ([`ServerInfo`]).
    Info,
    /// Run experiments over the daemon's session, in order.
    Run(Vec<ExperimentRequest>),
    /// Report the session's cache statistics.
    Stats,
    /// Report the daemon's telemetry as Prometheus text exposition
    /// (per-request-type latency histograms, store counters, uptime, RSS).
    Metrics,
    /// Stop accepting connections and exit after the in-flight ones drain.
    Shutdown,
}

/// A daemon response body.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Answer to [`WireRequest::Info`].
    Info(ServerInfo),
    /// Answer to [`WireRequest::Run`]: one response per request, in order.
    Run(Vec<ExperimentResponse>),
    /// Answer to [`WireRequest::Stats`].
    Stats(SessionStats),
    /// Answer to [`WireRequest::Metrics`]: the Prometheus text exposition.
    Metrics(String),
    /// Acknowledges [`WireRequest::Shutdown`].
    Shutdown,
    /// The request failed; deserializes as [`VliwError::Remote`].
    Error(VliwError),
}

/// One client request: a connection-local `id` and the body.  The daemon
/// echoes the `id` in its [`ResponseEnvelope`].
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Connection-local request id, echoed in the response.
    pub id: u64,
    /// The request body.
    pub body: WireRequest,
}

/// One daemon response, paired to its request by `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseEnvelope {
    /// The `id` of the request this answers.
    pub id: u64,
    /// The response body.
    pub body: WireResponse,
}

// The vendored serde derive covers named-field structs of primitives
// (`ServerInfo` above) but not data-carrying enums, so the envelopes and
// their bodies are serialized by hand as one flat tagged object:
// `{"id": N, "type": "<tag>", ...body}`.

/// Writes the flat `{"id", "type", ...}` envelope object, with at most one
/// body field.
fn envelope<T: Serialize + ?Sized>(
    w: &mut json::Writer<'_>,
    id: u64,
    tag: &str,
    body: Option<(&str, &T)>,
) -> std::io::Result<()> {
    w.object(|o| {
        o.field("id", &id)?;
        o.field("type", tag)?;
        match body {
            Some((key, value)) => o.field(key, value),
            None => Ok(()),
        }
    })
}

/// An envelope's `id`, `type` tag and remaining entries, as read off the wire.
type EnvelopeParts<'a> = (u64, &'a str, &'a [(String, Value)]);

/// Reads the `id` and `type` fields off an envelope object.
fn envelope_parts(v: &Value) -> Result<EnvelopeParts<'_>, de::Error> {
    let entries = v.as_object().ok_or_else(|| de::Error::unexpected("object", v))?;
    let id: u64 = de::field(entries, "id")?;
    match v.get("type") {
        Some(Value::String(tag)) => Ok((id, tag, entries)),
        Some(other) => Err(de::Error::unexpected("type tag", other)),
        None => Err(de::Error::custom("missing field `type`")),
    }
}

impl Serialize for RequestEnvelope {
    fn write_json(&self, w: &mut json::Writer<'_>) -> std::io::Result<()> {
        let (tag, requests) = match &self.body {
            WireRequest::Info => ("info", None),
            WireRequest::Run(requests) => ("run", Some(("requests", requests))),
            WireRequest::Stats => ("stats", None),
            WireRequest::Metrics => ("metrics", None),
            WireRequest::Shutdown => ("shutdown", None),
        };
        envelope(w, self.id, tag, requests)
    }
}

impl Deserialize for RequestEnvelope {
    fn deserialize(v: &Value) -> Result<Self, de::Error> {
        let (id, tag, entries) = envelope_parts(v)?;
        let body = match tag {
            "info" => WireRequest::Info,
            "run" => WireRequest::Run(de::field(entries, "requests")?),
            "stats" => WireRequest::Stats,
            "metrics" => WireRequest::Metrics,
            "shutdown" => WireRequest::Shutdown,
            other => return Err(de::Error::custom(format!("unknown request type `{other}`"))),
        };
        Ok(RequestEnvelope { id, body })
    }
}

impl Serialize for ResponseEnvelope {
    fn write_json(&self, w: &mut json::Writer<'_>) -> std::io::Result<()> {
        let id = self.id;
        match &self.body {
            WireResponse::Info(info) => envelope(w, id, "info", Some(("info", info))),
            WireResponse::Run(responses) => envelope(w, id, "run", Some(("responses", responses))),
            WireResponse::Stats(stats) => envelope(w, id, "stats", Some(("stats", stats))),
            WireResponse::Metrics(text) => envelope(w, id, "metrics", Some(("text", text))),
            WireResponse::Shutdown => envelope::<str>(w, id, "shutdown", None),
            WireResponse::Error(error) => envelope(w, id, "error", Some(("error", error))),
        }
    }
}

impl Deserialize for ResponseEnvelope {
    fn deserialize(v: &Value) -> Result<Self, de::Error> {
        let (id, tag, entries) = envelope_parts(v)?;
        let body = match tag {
            "info" => WireResponse::Info(de::field(entries, "info")?),
            "run" => WireResponse::Run(de::field(entries, "responses")?),
            "stats" => WireResponse::Stats(de::field(entries, "stats")?),
            "metrics" => WireResponse::Metrics(de::field(entries, "text")?),
            "shutdown" => WireResponse::Shutdown,
            "error" => WireResponse::Error(de::field(entries, "error")?),
            other => return Err(de::Error::custom(format!("unknown response type `{other}`"))),
        };
        Ok(ResponseEnvelope { id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Classify, Fig6Row};
    use std::io::Cursor;
    use vliw_machine::SweepGrid;

    fn frame_round_trip(value: Value) -> Value {
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let mut cursor = Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "stream ends cleanly");
        back
    }

    #[test]
    fn frames_round_trip_and_the_stream_ends_cleanly() {
        let value = Value::Object(vec![
            ("id".to_string(), Value::Int(7)),
            ("type".to_string(), Value::String("info".to_string())),
        ]);
        assert_eq!(frame_round_trip(value.clone()), value);
    }

    /// A writer that records each call and accepts at most `chunk` bytes
    /// per call, across every slice of a vectored write.
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
        chunk: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut room = self.chunk;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.chunk - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_short_writes_resume() {
        let value = Value::String("x".repeat(1000));
        let mut expected = 1002u32.to_be_bytes().to_vec();
        expected.extend_from_slice(serde_json::to_string(&value).unwrap().as_bytes());
        let mut whole = CountingWriter { bytes: Vec::new(), calls: 0, chunk: usize::MAX };
        for _ in 0..3 {
            write_frame(&mut whole, &value).unwrap();
        }
        assert_eq!(whole.calls, 3, "one write call per frame");
        assert_eq!(whole.bytes, expected.repeat(3));
        // A writer that takes 3 bytes at a time splits the header itself.
        let mut short = CountingWriter { bytes: Vec::new(), calls: 0, chunk: 3 };
        write_frame(&mut short, &value).unwrap();
        assert_eq!(short.bytes, expected);
        assert_eq!(short.calls, expected.len().div_ceil(3));
        let mut stuck = CountingWriter { bytes: Vec::new(), calls: 0, chunk: 0 };
        assert!(write_frame(&mut stuck, &value).is_err(), "a zero-byte write must not spin");
    }

    #[test]
    fn several_frames_on_one_stream_arrive_in_order() {
        let mut buf = Vec::new();
        for i in 0..3i64 {
            write_frame(&mut buf, &Value::Int(i)).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for i in 0..3i64 {
            assert_eq!(read_frame(&mut cursor).unwrap(), Some(Value::Int(i)));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn truncated_frames_are_protocol_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Value::String("hello, world".to_string())).unwrap();
        for cut in [1, 3, 5, buf.len() - 1] {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert_eq!(err.kind(), "protocol", "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocating() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xxxx");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn non_json_frames_are_protocol_errors() {
        let payload = b"not json";
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), "protocol");
    }

    #[test]
    fn request_envelopes_round_trip() {
        let requests = vec![
            RequestEnvelope { id: 1, body: WireRequest::Info },
            RequestEnvelope {
                id: 2,
                body: WireRequest::Run(vec![
                    ExperimentRequest::Fig3,
                    ExperimentRequest::Resources { cluster_counts: vec![4, 5, 6] },
                ]),
            },
            RequestEnvelope { id: 3, body: WireRequest::Stats },
            RequestEnvelope { id: 4, body: WireRequest::Metrics },
            RequestEnvelope { id: u64::MAX, body: WireRequest::Shutdown },
        ];
        for request in requests {
            let mut buf = Vec::new();
            write_message(&mut buf, &request).unwrap();
            let back: RequestEnvelope =
                read_message(&mut Cursor::new(buf)).unwrap().expect("one message");
            assert_eq!(back, request);
        }
    }

    #[test]
    fn response_envelopes_round_trip() {
        let responses = vec![
            ResponseEnvelope {
                id: 1,
                body: WireResponse::Info(ServerInfo {
                    corpus_size: 32,
                    seed: 386,
                    threads: 4,
                    protocol_version: PROTOCOL_VERSION,
                    store_version: crate::session::STORE_VERSION,
                    persistent: true,
                }),
            },
            ResponseEnvelope { id: 2, body: WireResponse::Run(Vec::new()) },
            ResponseEnvelope { id: 3, body: WireResponse::Stats(SessionStats::default()) },
            ResponseEnvelope { id: 4, body: WireResponse::Shutdown },
            ResponseEnvelope {
                id: 5,
                body: WireResponse::Error(VliwError::InvalidRequest("bad grid".to_string())),
            },
            ResponseEnvelope {
                id: 6,
                body: WireResponse::Metrics(
                    "# TYPE vliw_uptime_seconds gauge\nvliw_uptime_seconds 1.5\n".to_string(),
                ),
            },
        ];
        for response in responses {
            let mut buf = Vec::new();
            write_message(&mut buf, &response).unwrap();
            let back: ResponseEnvelope =
                read_message(&mut Cursor::new(buf)).unwrap().expect("one message");
            match (&back.body, &response.body) {
                // Errors deserialize as `Remote`, preserving kind and message.
                (WireResponse::Error(got), WireResponse::Error(sent)) => {
                    assert_eq!(back.id, response.id);
                    match got {
                        VliwError::Remote { kind, message } => {
                            assert_eq!(kind, sent.kind());
                            assert_eq!(message, &sent.to_string());
                        }
                        other => panic!("expected Remote, got {other:?}"),
                    }
                }
                _ => assert_eq!(back, response),
            }
        }
    }

    #[test]
    fn a_request_envelope_has_a_pinned_wire_form() {
        // Written by the encoder that built a `Value` tree first.
        let run = RequestEnvelope {
            id: 2,
            body: WireRequest::Run(vec![
                ExperimentRequest::Fig3,
                ExperimentRequest::Resources { cluster_counts: vec![4, 5, 6] },
                ExperimentRequest::Sweep {
                    grid: SweepGrid::Huge,
                    classify: Classify::Static,
                    prune: true,
                    audit: 64,
                },
                ExperimentRequest::Sweep {
                    grid: SweepGrid::Small,
                    classify: Classify::Dynamic,
                    prune: false,
                    audit: 0,
                },
            ]),
        };
        assert_eq!(
            serde_json::to_string(&run).unwrap(),
            r#"{"id":2,"type":"run","requests":[{"experiment":"fig3"},{"experiment":"resources","cluster_counts":[4,5,6]},{"experiment":"sweep","grid":"huge","classify":"static","prune":true,"audit":64},{"experiment":"sweep","grid":"small"}]}"#
        );
        assert_eq!(
            serde_json::to_string_pretty(&run).unwrap(),
            "{\n  \"id\": 2,\n  \"type\": \"run\",\n  \"requests\": [\n    {\n      \"experiment\": \"fig3\"\n    },\
             \n    {\n      \"experiment\": \"resources\",\n      \"cluster_counts\": [\n        4,\n        5,\
             \n        6\n      ]\n    },\n    {\n      \"experiment\": \"sweep\",\n      \"grid\": \"huge\",\
             \n      \"classify\": \"static\",\n      \"prune\": true,\n      \"audit\": 64\n    },\n    {\
             \n      \"experiment\": \"sweep\",\n      \"grid\": \"small\"\n    }\n  ]\n}"
        );
        let shutdown = RequestEnvelope { id: u64::MAX, body: WireRequest::Shutdown };
        assert_eq!(
            serde_json::to_string(&shutdown).unwrap(),
            r#"{"id":18446744073709551615,"type":"shutdown"}"#
        );
    }

    #[test]
    fn a_frame_that_cannot_be_encoded_sends_nothing() {
        let row = |same_ii: f64| Fig6Row {
            clusters: 4,
            fus: 12,
            same_ii,
            ii_plus_one: 0.25,
            ii_plus_more: 0.0,
            mean_ii_ratio: 1.5,
            same_stage_count: 1.0,
            loops: 8,
        };
        let response = |same_ii: f64| ResponseEnvelope {
            id: 9,
            body: WireResponse::Run(vec![ExperimentResponse::Fig6(vec![row(0.5), row(same_ii)])]),
        };
        let mut stream = CountingWriter { bytes: Vec::new(), calls: 0, chunk: usize::MAX };
        let err = write_message(&mut stream, &response(f64::NAN)).unwrap_err();
        assert_eq!(err.kind(), "protocol", "{err}");
        assert_eq!((stream.calls, stream.bytes.len()), (0, 0), "no byte of the frame left");
        write_message(&mut stream, &response(0.75)).unwrap();
        let back: ResponseEnvelope =
            read_message(&mut Cursor::new(stream.bytes)).unwrap().expect("one message");
        assert_eq!(back, response(0.75));
    }

    #[test]
    fn unknown_envelope_types_are_rejected() {
        let value = Value::Object(vec![
            ("id".to_string(), Value::Int(1)),
            ("type".to_string(), Value::String("dance".to_string())),
        ]);
        assert!(RequestEnvelope::deserialize(&value).is_err());
        assert!(ResponseEnvelope::deserialize(&value).is_err());
    }
}
