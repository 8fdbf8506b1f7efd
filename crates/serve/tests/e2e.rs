//! End-to-end daemon tests over real sockets: a `vliw-serve` instance in this
//! process, driven by the same [`ServeClient`] the `figures` CLI uses.
//!
//! Covered here: daemon-backed reports are byte-identical to in-process runs
//! (TCP and Unix transports), two concurrent clients coalesce onto one
//! compilation pass, invalid request parameters come back as typed errors on
//! a connection that keeps serving, a shutdown request ends the accept loop,
//! and a warm restart over a persistent cache serves everything from disk
//! with zero cold compiles.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use vliw_bench::{
    assemble_report, requests_for, run_experiments_in, validate_server, RunConfig, Selection,
    ServeClient,
};
use vliw_core::experiments::{fig3_experiment, Classify, ExperimentRequest};
use vliw_core::{Session, SweepGrid};
use vliw_serve::{Listen, ServeConfig, Server};

/// A fresh scratch directory under the system temp dir, unique per test.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("vliw_serve_{label}_{}_{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("scratch dir is creatable");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Binds a daemon on `listen`, runs its accept loop on a background thread,
/// and returns the address plus the join handle (which resolves once a client
/// sends shutdown).
fn spawn_daemon(config: ServeConfig) -> (String, thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("daemon binds");
    let addr = server.local_addr().to_string();
    let handle = thread::spawn(move || server.run().expect("accept loop exits cleanly"));
    (addr, handle)
}

/// A daemon config over a small corpus on an ephemeral TCP port.
fn tcp_config(corpus_size: usize, seed: u64) -> ServeConfig {
    ServeConfig {
        listen: Listen::Tcp("127.0.0.1:0".to_string()),
        corpus_size,
        seed,
        threads: Some(2),
        cache_dir: None,
    }
}

#[test]
fn tcp_daemon_reports_are_byte_identical_to_in_process_runs() {
    let (corpus_size, seed) = (16, 386);
    let (addr, daemon) = spawn_daemon(tcp_config(corpus_size, seed));

    let mut client = ServeClient::connect(&addr).expect("client connects");
    let info = client.info().expect("info answers");
    validate_server(&info, corpus_size, seed).expect("daemon serves what we asked for");
    assert_eq!(info.threads, 2);
    assert!(!info.persistent);

    let run = RunConfig { corpus_size, seed, threads: Some(2), ..RunConfig::default() };
    let responses = client.run(requests_for(Selection::All, &run)).unwrap();
    let remote = assemble_report(corpus_size, seed, responses).expect("responses assemble");
    let local = run_experiments_in(&Session::new(run.experiment_config()), Selection::All)
        .expect("in-process run succeeds");

    assert_eq!(remote, local, "daemon-backed report diverged from the in-process run");
    assert_eq!(
        serde_json::to_string_pretty(&remote).unwrap(),
        serde_json::to_string_pretty(&local).unwrap(),
        "serialized reports must be byte-identical"
    );

    // The daemon also answers static-verification requests, clean on the
    // warm session it just compiled for the figure run.
    let verify = client.run(requests_for(Selection::Verify, &run)).unwrap();
    assert_eq!(verify.len(), 1);
    match &verify[0] {
        vliw_core::experiments::ExperimentResponse::Verify(report) => {
            assert!(report.is_clean(), "daemon-verified corpus must be clean");
            assert_eq!(report.corpus_size, corpus_size);
        }
        other => panic!("asked for verify, got `{}`", other.name()),
    }

    client.shutdown().expect("shutdown acknowledged");
    daemon.join().expect("accept loop thread exits after shutdown");
}

#[test]
fn unix_daemon_serves_and_removes_its_socket_file() {
    let dir = ScratchDir::new("unix");
    let socket = dir.0.join("vliw.sock");
    let config = ServeConfig {
        listen: Listen::Unix(socket.clone()),
        corpus_size: 10,
        seed: 7,
        threads: Some(2),
        cache_dir: None,
    };
    let (addr, daemon) = spawn_daemon(config);
    assert_eq!(addr, format!("unix:{}", socket.display()));

    let mut client = ServeClient::connect(&addr).expect("client connects over unix socket");
    let responses = client.run(vec![vliw_core::experiments::ExperimentRequest::Fig3]).unwrap();
    let direct = fig3_experiment(&Session::quick(10, 7)).unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(
        serde_json::to_string(&responses[0]).unwrap(),
        serde_json::to_string(&vliw_core::experiments::ExperimentResponse::Fig3(direct)).unwrap()
    );

    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert!(!socket.exists(), "the daemon must remove its socket file on exit");
}

#[test]
fn concurrent_clients_coalesce_onto_one_compilation_pass() {
    let (corpus_size, seed) = (12, 19980330);
    let (addr, daemon) = spawn_daemon(tcp_config(corpus_size, seed));

    // What one pass costs, measured on an identical in-process session.
    let reference = Session::quick(corpus_size, seed);
    fig3_experiment(&reference).unwrap();
    let single = reference.stats();
    assert!(single.compilations > 0);

    // Two clients ask for the same experiment at the same time.
    let answers: Vec<String> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = ServeClient::connect(&addr).expect("client connects");
                    let responses = client
                        .run(vec![vliw_core::experiments::ExperimentRequest::Fig3])
                        .expect("run answers");
                    serde_json::to_string(&responses).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    assert_eq!(answers[0], answers[1], "concurrent clients must see identical bytes");

    // The daemon's session must have coalesced: every unique artifact was
    // compiled exactly once, the second client's requests were served as hits
    // (either from the memo store or by waiting on the in-flight slot).
    let mut client = ServeClient::connect(&addr).expect("stats client connects");
    let stats = client.stats().expect("stats answers");
    assert_eq!(
        stats.compilations, single.compilations,
        "duplicate in-flight work must not recompile: {stats:?}"
    );
    assert!(
        stats.hits >= single.compilations,
        "the second client's requests must be cache hits: {stats:?}"
    );

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn invalid_requests_are_typed_errors_on_a_connection_that_keeps_serving() {
    let (addr, daemon) = spawn_daemon(tcp_config(4, 3));
    let mut client = ServeClient::connect(&addr).expect("client connects");

    // A zero cluster count must not reach the machine constructor's assert
    // on the connection thread (the client would see EOF and the request
    // would stay counted in flight); an audit sample larger than the grid
    // must not hold the daemon.  Both are rejected before any work.
    let zero = ExperimentRequest::Resources { cluster_counts: vec![0] };
    let huge_audit = ExperimentRequest::Sweep {
        grid: SweepGrid::Small,
        classify: Classify::Static,
        prune: true,
        audit: usize::MAX,
    };
    for request in [zero, huge_audit] {
        let err = client.run(vec![request]).expect_err("the request is rejected");
        assert_eq!(err.kind(), "invalid_request", "{err}");
    }

    // The same connection still serves, and nothing leaked in flight: the
    // scrape itself is the only request executing.
    let responses = client.run(vec![ExperimentRequest::Fig3]).expect("fig3 answers");
    assert_eq!(responses[0].name(), "fig3");
    let text = client.metrics().expect("metrics answers");
    assert!(text.contains("\nvliw_requests_in_flight 1\n"), "{text}");

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn malformed_and_oversized_frames_get_structured_error_frames() {
    use std::io::Write;
    use vliw_core::protocol::{read_message, write_frame, ResponseEnvelope, MAX_FRAME_BYTES};
    use vliw_core::protocol::{WireResponse, PROTOCOL_VERSION};
    use vliw_core::VliwError;

    let (addr, daemon) = spawn_daemon(tcp_config(4, 1));

    // Expects the daemon to answer the broken frame with an error envelope
    // carrying id 0 (it never decoded a request id) and a structured
    // `protocol`-kind error, then drop the connection.
    let expect_protocol_error = |stream: &mut std::net::TcpStream| {
        let response: ResponseEnvelope =
            read_message(stream).expect("error envelope decodes").expect("daemon answers");
        assert_eq!(response.id, 0, "the real request id never arrived");
        match response.body {
            WireResponse::Error(e) => {
                assert_eq!(e.kind(), "protocol");
                match e {
                    VliwError::Remote { kind, message } => {
                        assert_eq!(kind, "protocol");
                        assert!(!message.is_empty());
                    }
                    other => panic!("wire errors deserialize as Remote, got {other:?}"),
                }
            }
            other => panic!("expected Error, got {other:?}"),
        }
        let eof: Option<ResponseEnvelope> = read_message(stream).expect("clean close");
        assert!(eof.is_none(), "the daemon drops the connection after a broken frame");
    };

    // A well-formed frame that is not a request envelope.
    let mut stream = std::net::TcpStream::connect(&addr).expect("raw client connects");
    write_frame(&mut stream, &serde_json::to_value(&7u32)).unwrap();
    expect_protocol_error(&mut stream);

    // A length prefix over the frame cap; the daemon must reject it without
    // reading (or allocating) the body.
    let mut stream = std::net::TcpStream::connect(&addr).expect("raw client connects");
    stream.write_all(&(MAX_FRAME_BYTES + 1).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    expect_protocol_error(&mut stream);

    // The daemon survives both broken clients and still serves real ones.
    let mut client = ServeClient::connect(&addr).expect("client connects");
    assert_eq!(client.info().expect("info answers").protocol_version, PROTOCOL_VERSION);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn metrics_frame_scrapes_daemon_telemetry() {
    let (addr, daemon) = spawn_daemon(tcp_config(8, 5));

    let mut client = ServeClient::connect(&addr).expect("client connects");
    client.run(vec![vliw_core::experiments::ExperimentRequest::Fig3]).expect("run answers");
    let text = client.metrics().expect("metrics answers");

    // Per-request-type latency histograms: the run request above must have
    // been recorded before the scrape.
    assert!(text.contains("# TYPE vliw_request_duration_seconds histogram"), "{text}");
    assert!(text.contains("vliw_request_duration_seconds_count{type=\"run\"} 1"), "{text}");
    assert!(text.contains("vliw_request_duration_seconds_bucket{type=\"run\",le=\"+Inf\"} 1"));
    // Store counters: the fig3 sweep compiled something.
    let compiled_line = text
        .lines()
        .find(|l| l.starts_with("vliw_store_events_total{kind=\"compile\",outcome=\"compiled\"}"))
        .expect("compile counter series present");
    let compiled: u64 = compiled_line.split_whitespace().last().unwrap().parse().unwrap();
    assert!(compiled > 0, "the fig3 run must have compiled: {compiled_line}");
    // Daemon gauges.
    assert!(text.contains("vliw_uptime_seconds"), "{text}");
    assert!(text.contains("vliw_connections_total 1"), "{text}");
    assert!(text.contains("vliw_protocol_errors_total 0"), "{text}");

    // A second scrape sees the first one in its own histogram.
    let text = client.metrics().expect("second scrape answers");
    assert!(text.contains("vliw_request_duration_seconds_count{type=\"metrics\"} 1"), "{text}");

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn a_warm_restart_over_a_persistent_cache_compiles_nothing() {
    let dir = ScratchDir::new("warm");
    let (corpus_size, seed) = (10, 8644);
    let config = |listen: Listen| ServeConfig {
        listen,
        corpus_size,
        seed,
        threads: Some(2),
        cache_dir: Some(dir.0.clone()),
    };

    // Cold daemon: pays for the compilations, persists the artifacts.
    let (addr, daemon) = spawn_daemon(config(Listen::Tcp("127.0.0.1:0".to_string())));
    let mut client = ServeClient::connect(&addr).unwrap();
    assert!(client.info().unwrap().persistent);
    let cold_answer = serde_json::to_string(
        &client.run(vec![vliw_core::experiments::ExperimentRequest::Fig3]).unwrap(),
    )
    .unwrap();
    let cold = client.stats().unwrap();
    assert!(cold.compilations > 0);
    assert_eq!(cold.disk_hits, 0);
    client.shutdown().unwrap();
    daemon.join().unwrap();

    // Warm daemon over the same cache dir: zero cold compiles, all disk hits,
    // identical bytes.
    let (addr, daemon) = spawn_daemon(config(Listen::Tcp("127.0.0.1:0".to_string())));
    let mut client = ServeClient::connect(&addr).unwrap();
    let warm_answer = serde_json::to_string(
        &client.run(vec![vliw_core::experiments::ExperimentRequest::Fig3]).unwrap(),
    )
    .unwrap();
    let warm = client.stats().unwrap();
    assert_eq!(warm_answer, cold_answer, "disk round-trip must be lossless");
    assert_eq!(warm.compilations, 0, "a warm daemon must not compile: {warm:?}");
    assert_eq!(warm.disk_hits, cold.compilations, "every artifact must come from disk");
    client.shutdown().unwrap();
    daemon.join().unwrap();
}
