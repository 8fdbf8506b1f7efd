//! Client for the `vliw-serve` daemon.
//!
//! [`ServeClient`] speaks the length-prefixed JSON frame protocol of
//! [`vliw_core::protocol`] over a TCP or Unix socket and exposes the four
//! request kinds as typed methods.  Each method performs one id-matched
//! round trip; server-side failures come back as [`VliwError::Remote`]
//! values carrying the daemon's error kind and message.
//!
//! The `figures` CLI builds one client per `--server` invocation; tests drive
//! the same type against an in-process daemon.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use vliw_core::experiments::{ExperimentRequest, ExperimentResponse};
use vliw_core::protocol::{
    read_message, write_message, RequestEnvelope, ResponseEnvelope, ServerInfo, WireRequest,
    WireResponse, PROTOCOL_VERSION,
};
use vliw_core::{SessionStats, VliwError};

/// Byte streams the client can run on.
trait Transport: Read + Write {}
impl<T: Read + Write> Transport for T {}

/// A connection to a `vliw-serve` daemon.
pub struct ServeClient {
    stream: Box<dyn Transport>,
    next_id: u64,
}

impl ServeClient {
    /// Connects to `addr`: `unix:/path/to.sock` for a Unix socket, anything
    /// else as a TCP `host:port`.
    pub fn connect(addr: &str) -> Result<ServeClient, VliwError> {
        let stream: Box<dyn Transport> = if let Some(path) = addr.strip_prefix("unix:") {
            Box::new(UnixStream::connect(path)?)
        } else {
            Box::new(TcpStream::connect(addr)?)
        };
        Ok(ServeClient { stream, next_id: 1 })
    }

    /// One id-matched request/response round trip; unwraps error responses.
    fn round_trip(&mut self, body: WireRequest) -> Result<WireResponse, VliwError> {
        let id = self.next_id;
        self.next_id += 1;
        write_message(&mut self.stream, &RequestEnvelope { id, body })?;
        let response: ResponseEnvelope = read_message(&mut self.stream)?.ok_or_else(|| {
            VliwError::Protocol("server closed the connection before answering".to_string())
        })?;
        // Surface error bodies before checking ids: the daemon answers
        // protocol-level failures (malformed frame, oversized frame) with an
        // error envelope carrying id 0 because it never decoded a request id.
        // Hiding that behind an id-mismatch message would lose the structured
        // kind/message the server went to the trouble of sending.
        if let WireResponse::Error(e) = response.body {
            return Err(e);
        }
        if response.id != id {
            return Err(VliwError::Protocol(format!(
                "response id {} does not match request id {id}",
                response.id
            )));
        }
        Ok(response.body)
    }

    /// Asks the daemon what it serves.
    pub fn info(&mut self) -> Result<ServerInfo, VliwError> {
        match self.round_trip(WireRequest::Info)? {
            WireResponse::Info(info) => Ok(info),
            other => Err(unexpected("info", &other)),
        }
    }

    /// Runs experiments over the daemon's session, in order.  Each response
    /// must answer the request in its position (same experiment name).
    pub fn run(
        &mut self,
        requests: Vec<ExperimentRequest>,
    ) -> Result<Vec<ExperimentResponse>, VliwError> {
        let asked: Vec<&str> = requests.iter().map(ExperimentRequest::name).collect();
        match self.round_trip(WireRequest::Run(requests))? {
            WireResponse::Run(responses) => {
                let answered: Vec<&str> = responses.iter().map(ExperimentResponse::name).collect();
                if answered != asked {
                    return Err(VliwError::Protocol(format!(
                        "asked the server for {asked:?}, it answered {answered:?}"
                    )));
                }
                Ok(responses)
            }
            other => Err(unexpected("run", &other)),
        }
    }

    /// Fetches the daemon session's cache statistics.
    pub fn stats(&mut self) -> Result<SessionStats, VliwError> {
        match self.round_trip(WireRequest::Stats)? {
            WireResponse::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Fetches the daemon's telemetry as Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, VliwError> {
        match self.round_trip(WireRequest::Metrics)? {
            WireResponse::Metrics(text) => Ok(text),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Asks the daemon to stop accepting connections and exit.
    pub fn shutdown(&mut self) -> Result<(), VliwError> {
        match self.round_trip(WireRequest::Shutdown)? {
            WireResponse::Shutdown => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }
}

/// Diagnoses a response body of the wrong kind.
fn unexpected(asked: &str, got: &WireResponse) -> VliwError {
    let kind = match got {
        WireResponse::Info(_) => "info",
        WireResponse::Run(_) => "run",
        WireResponse::Stats(_) => "stats",
        WireResponse::Metrics(_) => "metrics",
        WireResponse::Shutdown => "shutdown",
        WireResponse::Error(_) => "error",
    };
    VliwError::Protocol(format!("asked for `{asked}`, server answered `{kind}`"))
}

/// Checks that a daemon serves the session this run expects: same corpus,
/// same seed, same protocol version.  Returns a user-facing message naming
/// each mismatch.
pub fn validate_server(info: &ServerInfo, corpus_size: usize, seed: u64) -> Result<(), String> {
    if info.protocol_version != PROTOCOL_VERSION {
        return Err(format!(
            "server speaks protocol version {}, this client speaks {PROTOCOL_VERSION}",
            info.protocol_version
        ));
    }
    if info.corpus_size != corpus_size || info.seed != seed {
        return Err(format!(
            "server session is {} loops seed {}, this run wants {} loops seed {} \
             (pass --corpus-size/--seed matching the daemon, or restart it)",
            info.corpus_size, info.seed, corpus_size, seed
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_accepts_a_matching_server_and_names_mismatches() {
        let info = ServerInfo {
            corpus_size: 32,
            seed: 386,
            threads: 4,
            protocol_version: PROTOCOL_VERSION,
            store_version: vliw_core::session::STORE_VERSION,
            persistent: false,
        };
        assert_eq!(validate_server(&info, 32, 386), Ok(()));
        assert!(validate_server(&info, 64, 386).unwrap_err().contains("64"));
        assert!(validate_server(&info, 32, 1).unwrap_err().contains("seed 1"));
        let old = ServerInfo { protocol_version: PROTOCOL_VERSION + 1, ..info };
        assert!(validate_server(&old, 32, 386).unwrap_err().contains("protocol"));
    }

    #[test]
    fn an_error_envelope_with_id_zero_surfaces_as_the_remote_error() {
        // A daemon that cannot decode a frame answers with id 0 (the real id
        // never arrived); the client must surface that structured error, not
        // an id-mismatch diagnostic that hides it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("client connects");
            // Drain the request frame, then answer with an id-0 error.
            let _: Option<RequestEnvelope> = read_message(&mut stream).expect("request decodes");
            write_message(
                &mut stream,
                &ResponseEnvelope {
                    id: 0,
                    body: WireResponse::Error(VliwError::Protocol("bad frame".to_string())),
                },
            )
            .expect("error envelope writes");
        });
        let mut client = ServeClient::connect(&addr).expect("client connects");
        let err = client.info().expect_err("the error envelope must surface");
        assert_eq!(err.kind(), "protocol");
        assert!(err.to_string().contains("bad frame"), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn connecting_to_a_dead_address_is_an_io_error() {
        // Port 1 on localhost is essentially never listening.
        let Err(err) = ServeClient::connect("127.0.0.1:1") else {
            panic!("connected to a dead port")
        };
        assert_eq!(err.kind(), "io");
        let Err(err) = ServeClient::connect("unix:/nonexistent/vliw.sock") else {
            panic!("connected to a dead socket")
        };
        assert_eq!(err.kind(), "io");
    }
}
