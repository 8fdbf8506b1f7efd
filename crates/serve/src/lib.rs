//! `vliw-serve` — a persistent compile/simulate daemon behind the Experiment
//! API: every `run` frame's requests execute through
//! [`vliw_core::experiments::ExperimentRequest::run`], the same dispatch the
//! in-process `figures` CLI uses.
//!
//! The daemon owns exactly one [`Session`] (one corpus, one memo store, one
//! optional on-disk artifact cache) and serves it to any number of concurrent
//! clients over a Unix or TCP socket, speaking the length-prefixed JSON frame
//! protocol of [`vliw_core::protocol`].  The point is amortization: the
//! session's corpus is generated once at startup, every compilation and
//! simulation is memoized across *all* clients and — with `--cache-dir` —
//! across daemon restarts, and duplicate in-flight work is coalesced (two
//! clients requesting the same experiment concurrently pay for one compile;
//! the session's per-key once-slots block the second requester until the
//! first one's artifact lands, then both share it).
//!
//! The accept loop admits connections until a client sends
//! [`WireRequest::Shutdown`]; the daemon then stops accepting, drains the
//! in-flight connections and exits.  Each connection runs on its own thread,
//! handling one request at a time in arrival order (clients may still
//! pipeline: responses are matched by envelope id).
//!
//! The `figures` CLI is one such client (`figures all --server ADDR`); the
//! in-process and daemon-backed runs produce byte-identical reports because
//! the wire format round-trips every row losslessly.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vliw_core::protocol::{
    read_message, write_message, RequestEnvelope, ResponseEnvelope, ServerInfo, WireRequest,
    WireResponse, PROTOCOL_VERSION,
};
use vliw_core::session::{peak_rss_kb, STORE_VERSION};
use vliw_core::{CorpusConfig, Session, SessionBuilder, VliwError};
use vliw_obs::{fmt_duration, prom_header, prom_sample_f64, prom_sample_u64, LatencyHistogram};

/// Default listen address of the daemon.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7421";

/// Where the daemon listens: a TCP address or a Unix socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address in `host:port` form (port 0 picks a free port).
    Tcp(String),
    /// A Unix domain socket path.
    Unix(PathBuf),
}

impl std::str::FromStr for Listen {
    type Err = String;

    /// Parses `unix:/path/to.sock` as a Unix socket, anything else as a TCP
    /// address.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix socket path is empty".to_string());
            }
            Ok(Listen::Unix(PathBuf::from(path)))
        } else if s.is_empty() {
            Err("listen address is empty".to_string())
        } else {
            Ok(Listen::Tcp(s.to_string()))
        }
    }
}

impl std::fmt::Display for Listen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Listen::Tcp(addr) => f.write_str(addr),
            Listen::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Startup parameters of a daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Where to listen.
    pub listen: Listen,
    /// Number of loops in the session corpus.
    pub corpus_size: usize,
    /// Corpus generator seed.
    pub seed: u64,
    /// Worker threads of the session executor (`None` = the session default).
    pub threads: Option<usize>,
    /// Directory of the persistent artifact cache (`None` = in-memory only).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let corpus = CorpusConfig::paper_default();
        ServeConfig {
            listen: Listen::Tcp(DEFAULT_ADDR.to_string()),
            corpus_size: corpus.num_loops,
            seed: corpus.seed,
            threads: None,
            cache_dir: None,
        }
    }
}

/// The wire request kinds the daemon tracks per-type latency for, in the
/// order of the [`ServeMetrics::latency`] histograms.
const REQUEST_KINDS: [&str; 5] = ["info", "run", "stats", "metrics", "shutdown"];

/// Daemon-side telemetry: request latencies, connection and error counters,
/// uptime.  One instance per [`Server`], shared with every connection thread;
/// all updates are relaxed atomics, so a scrape never blocks a request.
///
/// The session's own counters (memo-store hits, persist I/O) are *not*
/// duplicated here — [`ServeMetrics::render`] reads them live from the
/// session when a scrape asks.
#[derive(Debug)]
pub struct ServeMetrics {
    /// When the daemon started serving; scrapes report the elapsed time.
    started: Instant,
    /// Connections accepted since startup (also the connection id source).
    connections_total: AtomicU64,
    /// Requests currently being executed across all connections.
    requests_in_flight: AtomicU64,
    /// Frames that failed to decode into a request envelope.
    protocol_errors_total: AtomicU64,
    /// Per-request-type latency, indexed like [`REQUEST_KINDS`].
    latency: [LatencyHistogram; REQUEST_KINDS.len()],
}

impl ServeMetrics {
    /// Fresh telemetry with the uptime clock starting now.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            started: Instant::now(),
            connections_total: AtomicU64::new(0),
            requests_in_flight: AtomicU64::new(0),
            protocol_errors_total: AtomicU64::new(0),
            latency: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    /// Claims the next connection id (1-based) and counts the connection.
    pub fn next_connection(&self) -> u64 {
        self.connections_total.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records one served request of `REQUEST_KINDS[kind]`.
    fn observe(&self, kind: usize, elapsed: Duration) {
        self.latency[kind].record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Renders the full scrape: daemon telemetry plus the session's live
    /// memo-store and persist counters, in Prometheus text exposition.
    pub fn render(&self, session: &Session) -> String {
        let mut out = String::new();

        prom_header(&mut out, "vliw_uptime_seconds", "gauge", "Seconds since the daemon started");
        prom_sample_f64(&mut out, "vliw_uptime_seconds", "", self.started.elapsed().as_secs_f64());

        prom_header(
            &mut out,
            "vliw_connections_total",
            "counter",
            "Connections accepted since startup",
        );
        prom_sample_u64(
            &mut out,
            "vliw_connections_total",
            "",
            self.connections_total.load(Ordering::Relaxed),
        );

        prom_header(
            &mut out,
            "vliw_requests_in_flight",
            "gauge",
            "Requests currently executing across all connections",
        );
        prom_sample_u64(
            &mut out,
            "vliw_requests_in_flight",
            "",
            self.requests_in_flight.load(Ordering::Relaxed),
        );

        prom_header(
            &mut out,
            "vliw_protocol_errors_total",
            "counter",
            "Frames that failed to decode into a request envelope",
        );
        prom_sample_u64(
            &mut out,
            "vliw_protocol_errors_total",
            "",
            self.protocol_errors_total.load(Ordering::Relaxed),
        );

        prom_header(
            &mut out,
            "vliw_request_duration_seconds",
            "histogram",
            "Wall-clock time serving one request, by request type",
        );
        for (i, kind) in REQUEST_KINDS.iter().enumerate() {
            let labels = format!("type=\"{kind}\"");
            self.latency[i].render_prometheus(&mut out, "vliw_request_duration_seconds", &labels);
        }

        // The session's counters, read live: misses mean real work, hits mean
        // memoization paid off, and the gap between concurrent requests and
        // compilations is the in-flight coalescing the once-slots bought.
        let stats = session.stats();
        prom_header(
            &mut out,
            "vliw_store_events_total",
            "counter",
            "Session memo-store requests by kind and how they were satisfied",
        );
        let store = [
            ("compile", "compiled", stats.compilations),
            ("compile", "hit", stats.hits),
            ("compile", "disk_hit", stats.disk_hits),
            ("sim", "run", stats.sim_runs),
            ("sim", "hit", stats.sim_hits),
            ("sim", "disk_hit", stats.sim_disk_hits),
            ("verify", "verified", stats.verifications),
            ("verify", "hit", stats.verify_hits),
        ];
        for (kind, outcome, value) in store {
            let labels = format!("kind=\"{kind}\",outcome=\"{outcome}\"");
            prom_sample_u64(&mut out, "vliw_store_events_total", &labels, value);
        }
        prom_header(
            &mut out,
            "vliw_store_unique_keys",
            "gauge",
            "Distinct compilation keys interned by the session",
        );
        prom_sample_u64(&mut out, "vliw_store_unique_keys", "", stats.unique_keys);

        if let Some((loads, writes, rejects)) = session.persist_counters() {
            prom_header(
                &mut out,
                "vliw_persist_io_total",
                "counter",
                "Persistent artifact store operations by kind",
            );
            prom_sample_u64(&mut out, "vliw_persist_io_total", "op=\"load\"", loads);
            prom_sample_u64(&mut out, "vliw_persist_io_total", "op=\"write\"", writes);
            prom_sample_u64(&mut out, "vliw_persist_io_total", "op=\"reject\"", rejects);
        }

        if let Some(rss) = peak_rss_kb() {
            prom_header(
                &mut out,
                "vliw_peak_rss_kb",
                "gauge",
                "Peak resident set size of the daemon process in kB",
            );
            prom_sample_u64(&mut out, "vliw_peak_rss_kb", "", rss);
        }

        out
    }
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

/// The bound listener, in either transport.
enum Acceptor {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// Byte streams a connection can run on.
trait Connection: Read + Write + Send {}
impl<T: Read + Write + Send> Connection for T {}

/// A running daemon: one session, one listener, an accept loop.
pub struct Server {
    session: Arc<Session>,
    acceptor: Acceptor,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    local_addr: String,
}

impl Server {
    /// Builds the session (generating the corpus, opening the persistent
    /// store if configured — a broken `cache_dir` is a startup error, not a
    /// silent downgrade) and binds the listener.
    pub fn bind(config: ServeConfig) -> Result<Server, VliwError> {
        let mut builder = SessionBuilder::new().corpus_size(config.corpus_size).seed(config.seed);
        if let Some(threads) = config.threads {
            builder = builder.threads(threads);
        }
        if let Some(dir) = &config.cache_dir {
            builder = builder.cache_dir(dir.clone());
        }
        let session = Arc::new(builder.try_build()?);

        let (acceptor, local_addr) = match &config.listen {
            Listen::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let local =
                    listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| addr.clone());
                (Acceptor::Tcp(listener), local)
            }
            Listen::Unix(path) => {
                // A stale socket file from a dead daemon would make bind fail;
                // the daemon owns its path, so clear it first.
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let listener = UnixListener::bind(path)?;
                (Acceptor::Unix(listener, path.clone()), format!("unix:{}", path.display()))
            }
        };
        match &acceptor {
            Acceptor::Tcp(l) => l.set_nonblocking(true)?,
            Acceptor::Unix(l, _) => l.set_nonblocking(true)?,
        }

        Ok(Server {
            session,
            acceptor,
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(ServeMetrics::new()),
            local_addr,
        })
    }

    /// The address the daemon actually listens on (with the real port when
    /// the config asked for port 0).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// The daemon's session (shared with every connection).
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Flag that stops the accept loop; a [`WireRequest::Shutdown`] sets it,
    /// and embedders (tests, a signal handler) may set it directly.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The daemon's telemetry (shared with every connection).
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// What this daemon serves, as reported to clients.
    pub fn info(&self) -> ServerInfo {
        server_info(&self.session)
    }

    /// Accepts and serves connections until a client requests shutdown, then
    /// drains the in-flight connections and returns.
    pub fn run(self) -> Result<(), VliwError> {
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.poll_accept()? {
                Some(stream) => {
                    let session = Arc::clone(&self.session);
                    let shutdown = Arc::clone(&self.shutdown);
                    let metrics = Arc::clone(&self.metrics);
                    let conn_id = metrics.next_connection();
                    workers.push(std::thread::spawn(move || {
                        let mut stream = stream;
                        if let Err(e) = serve_connection(
                            &session,
                            stream.as_mut(),
                            &shutdown,
                            &metrics,
                            conn_id,
                        ) {
                            eprintln!("vliw-serve: conn {conn_id}: connection error: {e}");
                        }
                    }));
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
            workers.retain(|w| !w.is_finished());
        }
        for worker in workers {
            let _ = worker.join();
        }
        if let Acceptor::Unix(_, path) = &self.acceptor {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// One non-blocking accept attempt; `None` when no client is waiting.
    fn poll_accept(&self) -> Result<Option<Box<dyn Connection>>, VliwError> {
        // Connections are served with blocking reads; only the listener polls.
        let accepted: std::io::Result<Box<dyn Connection>> = match &self.acceptor {
            Acceptor::Tcp(listener) => listener.accept().and_then(|(stream, _)| {
                stream.set_nonblocking(false)?;
                Ok(Box::new(stream) as Box<dyn Connection>)
            }),
            Acceptor::Unix(listener, _) => listener.accept().and_then(|(stream, _)| {
                stream.set_nonblocking(false)?;
                Ok(Box::new(stream) as Box<dyn Connection>)
            }),
        };
        match accepted {
            Ok(stream) => Ok(Some(stream)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// The daemon's description of its session.
fn server_info(session: &Session) -> ServerInfo {
    ServerInfo {
        corpus_size: session.num_loops(),
        seed: session.config().corpus.seed,
        threads: session.threads(),
        protocol_version: PROTOCOL_VERSION,
        store_version: STORE_VERSION,
        persistent: session.is_persistent(),
    }
}

/// The latency-histogram index and log name of a request body.
fn request_kind(body: &WireRequest) -> usize {
    match body {
        WireRequest::Info => 0,
        WireRequest::Run(_) => 1,
        WireRequest::Stats => 2,
        WireRequest::Metrics => 3,
        WireRequest::Shutdown => 4,
    }
}

/// Serves one connection: reads request envelopes until the peer closes the
/// stream (or asks for shutdown), answering each in arrival order.
///
/// Every decodable request gets a response — failures travel as
/// [`WireResponse::Error`].  An undecodable frame is answered with a
/// best-effort error envelope (id 0, since the real id never arrived) before
/// the connection is dropped.  Every served request is logged to stderr with
/// its connection id, type, outcome and latency, and recorded in `metrics`.
pub fn serve_connection<S: Read + Write + ?Sized>(
    session: &Session,
    stream: &mut S,
    shutdown: &AtomicBool,
    metrics: &ServeMetrics,
    conn_id: u64,
) -> Result<(), VliwError> {
    loop {
        let request = match read_message::<_, RequestEnvelope>(stream) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(e) => {
                metrics.protocol_errors_total.fetch_add(1, Ordering::Relaxed);
                eprintln!("vliw-serve: conn {conn_id} undecodable frame: {e}");
                let _ = write_message(
                    stream,
                    &ResponseEnvelope { id: 0, body: WireResponse::Error(e.clone()) },
                );
                return Err(e);
            }
        };
        let kind = request_kind(&request.body);
        metrics.requests_in_flight.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let (body, stop) = handle_request(session, request.body, shutdown, metrics);
        let elapsed = start.elapsed();
        metrics.requests_in_flight.fetch_sub(1, Ordering::Relaxed);
        metrics.observe(kind, elapsed);
        let outcome = match &body {
            WireResponse::Error(e) => format!("err({})", e.kind()),
            _ => "ok".to_string(),
        };
        eprintln!(
            "vliw-serve: conn {conn_id} {} {} in {}",
            REQUEST_KINDS[kind],
            outcome,
            fmt_duration(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)),
        );
        write_message(stream, &ResponseEnvelope { id: request.id, body })?;
        if stop {
            return Ok(());
        }
    }
}

/// Executes one request body; the bool asks the connection loop to stop.
fn handle_request(
    session: &Session,
    body: WireRequest,
    shutdown: &AtomicBool,
    metrics: &ServeMetrics,
) -> (WireResponse, bool) {
    match body {
        WireRequest::Info => (WireResponse::Info(server_info(session)), false),
        WireRequest::Run(requests) => {
            match requests.iter().map(|request| request.run(session)).collect() {
                Ok(responses) => (WireResponse::Run(responses), false),
                Err(e) => (WireResponse::Error(e), false),
            }
        }
        WireRequest::Stats => (WireResponse::Stats(session.stats()), false),
        WireRequest::Metrics => (WireResponse::Metrics(metrics.render(session)), false),
        WireRequest::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            (WireResponse::Shutdown, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use vliw_core::experiments::{fig3_experiment, ExperimentRequest, ExperimentResponse};

    /// A scripted duplex: requests are pre-written into the read side, the
    /// responses accumulate in the write side.
    struct Scripted {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn script(requests: &[RequestEnvelope]) -> Scripted {
        let mut input = Vec::new();
        for request in requests {
            write_message(&mut input, request).unwrap();
        }
        Scripted { input: Cursor::new(input), output: Vec::new() }
    }

    fn responses_of(stream: Scripted) -> Vec<ResponseEnvelope> {
        let mut cursor = Cursor::new(stream.output);
        let mut responses = Vec::new();
        while let Some(response) = read_message(&mut cursor).unwrap() {
            responses.push(response);
        }
        responses
    }

    #[test]
    fn listen_addresses_parse_both_transports() {
        assert_eq!("127.0.0.1:7421".parse(), Ok(Listen::Tcp("127.0.0.1:7421".to_string())));
        assert_eq!(
            "unix:/tmp/vliw.sock".parse(),
            Ok(Listen::Unix(PathBuf::from("/tmp/vliw.sock")))
        );
        assert!("".parse::<Listen>().is_err());
        assert!("unix:".parse::<Listen>().is_err());
        assert_eq!(Listen::Tcp("a:1".into()).to_string(), "a:1");
        assert_eq!(Listen::Unix("/p.sock".into()).to_string(), "unix:/p.sock");
    }

    #[test]
    fn info_stats_and_run_are_served_in_order() {
        let session = Session::quick(6, 5);
        let shutdown = AtomicBool::new(false);
        let mut stream = script(&[
            RequestEnvelope { id: 1, body: WireRequest::Info },
            RequestEnvelope { id: 2, body: WireRequest::Run(vec![ExperimentRequest::Fig3]) },
            RequestEnvelope { id: 3, body: WireRequest::Stats },
        ]);
        serve_connection(&session, &mut stream, &shutdown, &ServeMetrics::new(), 1).unwrap();
        let responses = responses_of(stream);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].id, 1);
        match &responses[0].body {
            WireResponse::Info(info) => {
                assert_eq!(info.corpus_size, 6);
                assert_eq!(info.seed, 5);
                assert_eq!(info.protocol_version, PROTOCOL_VERSION);
                assert!(!info.persistent);
            }
            other => panic!("expected Info, got {other:?}"),
        }
        match &responses[1].body {
            WireResponse::Run(results) => {
                let direct = fig3_experiment(&session).unwrap();
                assert_eq!(results, &vec![ExperimentResponse::Fig3(direct)]);
            }
            other => panic!("expected Run, got {other:?}"),
        }
        match &responses[2].body {
            WireResponse::Stats(stats) => assert!(stats.compilations > 0),
            other => panic!("expected Stats, got {other:?}"),
        }
        assert!(!shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn shutdown_sets_the_flag_and_ends_the_connection() {
        let session = Session::quick(2, 1);
        let shutdown = AtomicBool::new(false);
        let mut stream = script(&[
            RequestEnvelope { id: 9, body: WireRequest::Shutdown },
            // Anything after shutdown on this connection is not served.
            RequestEnvelope { id: 10, body: WireRequest::Info },
        ]);
        serve_connection(&session, &mut stream, &shutdown, &ServeMetrics::new(), 1).unwrap();
        let responses = responses_of(stream);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].id, 9);
        assert_eq!(responses[0].body, WireResponse::Shutdown);
        assert!(shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn malformed_frames_get_a_best_effort_error_envelope() {
        let session = Session::quick(2, 1);
        let shutdown = AtomicBool::new(false);
        let mut input = Vec::new();
        // A valid frame that is not a request envelope.
        vliw_core::protocol::write_frame(&mut input, &serde_json::to_value(&42u32)).unwrap();
        let mut stream = Scripted { input: Cursor::new(input), output: Vec::new() };
        let err = serve_connection(&session, &mut stream, &shutdown, &ServeMetrics::new(), 1)
            .unwrap_err();
        assert_eq!(err.kind(), "protocol");
        let responses = responses_of(stream);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].id, 0);
        match &responses[0].body {
            WireResponse::Error(e) => assert_eq!(e.kind(), "protocol"),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn multi_request_run_answers_in_request_order() {
        let session = Session::quick(2, 1);
        let shutdown = AtomicBool::new(false);
        let mut stream = script(&[RequestEnvelope {
            id: 4,
            body: WireRequest::Run(vec![
                ExperimentRequest::Fig4,
                ExperimentRequest::Resources { cluster_counts: vec![4] },
            ]),
        }]);
        serve_connection(&session, &mut stream, &shutdown, &ServeMetrics::new(), 1).unwrap();
        let responses = responses_of(stream);
        assert_eq!(responses.len(), 1);
        match &responses[0].body {
            WireResponse::Run(results) => {
                assert_eq!(results.len(), 2);
                assert_eq!(results[0].name(), "fig4");
                assert_eq!(results[1].name(), "resources");
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn metrics_scrape_reports_histograms_and_store_counters() {
        let session = Session::quick(4, 3);
        let shutdown = AtomicBool::new(false);
        let metrics = ServeMetrics::new();
        let mut stream = script(&[
            RequestEnvelope { id: 1, body: WireRequest::Run(vec![ExperimentRequest::Fig3]) },
            RequestEnvelope { id: 2, body: WireRequest::Metrics },
        ]);
        serve_connection(&session, &mut stream, &shutdown, &metrics, 7).unwrap();
        let responses = responses_of(stream);
        assert_eq!(responses.len(), 2);
        let WireResponse::Metrics(text) = &responses[1].body else {
            panic!("expected Metrics, got {:?}", responses[1].body)
        };
        // The run request finished before the scrape, so its histogram holds
        // exactly one observation; the scrape itself is the only in-flight
        // request while rendering.
        assert!(text.contains("vliw_request_duration_seconds_count{type=\"run\"} 1"), "{text}");
        assert!(text.contains("vliw_request_duration_seconds_bucket{type=\"run\",le=\"+Inf\"} 1"));
        assert!(text.contains("vliw_requests_in_flight 1"));
        assert!(text.contains("vliw_uptime_seconds"));
        assert!(text.contains("vliw_store_events_total{kind=\"compile\",outcome=\"compiled\"}"));
        // The quick session has no cache dir, so persist series are absent.
        assert!(!text.contains("vliw_persist_io_total"));
        if cfg!(target_os = "linux") {
            assert!(text.contains("vliw_peak_rss_kb"));
        }
    }

    #[test]
    fn default_config_listens_on_the_documented_address() {
        let config = ServeConfig::default();
        assert_eq!(config.listen, Listen::Tcp(DEFAULT_ADDR.to_string()));
        assert_eq!(config.corpus_size, CorpusConfig::paper_default().num_loops);
        assert!(config.cache_dir.is_none());
    }
}
