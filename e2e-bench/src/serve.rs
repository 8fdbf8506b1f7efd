//! `serve_warm`: a `vliw-serve` daemon on a Unix socket over a 128-loop
//! corpus, warmed by one pass of the request mix, then driven by 2
//! closed-loop clients (each waits for its reply before sending the next
//! request) cycling through `Run[Fig6]`, `Run[Resources]`, `Run[Verify]`,
//! `Run[Sweep{small, prune}]` and `Stats`.  Every warm request is a memo-store
//! read, driver aggregation and the protocol codec — no compilation.
//!
//! The daemon is this benchmark's own executable re-run with `--daemon`, which
//! hosts `vliw_serve::Server` in a separate process (its per-request stderr
//! log is discarded) and, after shutdown, re-checks every schedule it
//! compiled and reports the result on stdout.

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use vliw_bench::{ServeClient, RESOURCE_CLUSTER_COUNTS};
use vliw_core::experiments::{Classify, ExperimentRequest};
use vliw_core::protocol::{read_frame, write_frame, ResponseEnvelope, WireResponse};
use vliw_core::{generate_corpus, CorpusConfig, SessionStats, SweepGrid};
use vliw_serve::{Listen, ServeConfig, Server};

use crate::layers::{put_stage_metrics, Layers};
use crate::stats::{call_median_s, cpu_s, median, percentile, secs, splitmix64, Metrics, Tally};
use crate::{checks, points, Args, EndToEnd, CORPUS_SEED, THREADS};

const LOOPS: usize = 128;
/// Cold daemon start-ups per run; the set-up metric is their median.  Each
/// takes ~10 s on a 2-core box, which bounds how many a run can afford.
const SETUPS: usize = 2;
/// Executor threads of the daemon's session.  Each connection is served on
/// its own thread, so the 2 clients already keep both cores busy; a second
/// executor thread per request would put 4 runnable threads on 2 cores and
/// make the tail track the host's scheduling noise instead of the daemon.
const DAEMON_THREADS: usize = 1;
/// Directory (relative to the working directory) holding the daemon socket.
const RUN_DIR: &str = ".bench_run";

/// One request of the mix.
enum Ask {
    Run(Vec<ExperimentRequest>),
    Stats,
}

impl Ask {
    /// Sends the request through `client`; returns the typed answer as a
    /// response body.
    fn send(&self, client: &mut ServeClient) -> Result<WireResponse, String> {
        match self {
            Ask::Run(requests) => client.run(requests.clone()).map(WireResponse::Run),
            Ask::Stats => client.stats().map(WireResponse::Stats),
        }
        .map_err(|e| e.to_string())
    }
}

/// The request mix, with the driver each request exercises.
fn mix() -> Vec<(&'static str, Ask)> {
    vec![
        ("fig6", Ask::Run(vec![ExperimentRequest::Fig6])),
        (
            "resources",
            Ask::Run(vec![ExperimentRequest::Resources {
                cluster_counts: RESOURCE_CLUSTER_COUNTS.to_vec(),
            }]),
        ),
        ("verify", Ask::Run(vec![ExperimentRequest::Verify])),
        (
            "sweep_pruned",
            Ask::Run(vec![ExperimentRequest::Sweep {
                grid: SweepGrid::Small,
                classify: Classify::Static,
                prune: true,
                audit: 16,
            }]),
        ),
        ("stats", Ask::Stats),
    ]
}

/// Entry point of the `--daemon` child: serve until a client asks for
/// shutdown, then re-check the session's schedules and print
/// `attempted failed ii_over_mii` on stdout.
pub fn daemon(socket: &str) -> Result<(), String> {
    let server = Server::bind(ServeConfig {
        listen: Listen::Unix(PathBuf::from(socket)),
        corpus_size: LOOPS,
        seed: CORPUS_SEED,
        threads: Some(DAEMON_THREADS),
        cache_dir: None,
    })
    .map_err(|e| e.to_string())?;
    let session = Arc::clone(server.session());
    server.run().map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let quality = checks::recheck(&session, &points::serve_points(), &mut tally);
    println!("{} {} {}", tally.attempted, tally.failed, quality.geomean());
    Ok(())
}

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(n: usize) -> Result<Daemon, String> {
        std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("cannot create {RUN_DIR}: {e}"))?;
        let socket = PathBuf::from(format!("{RUN_DIR}/serve-{}-{n}.sock", std::process::id()));
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("--daemon")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut daemon = Daemon { child: Some(child), socket };
        let deadline = Instant::now() + Duration::from_secs(60);
        while UnixStream::connect(&daemon.socket).is_err() {
            let exited = daemon.child.as_mut().and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(format!("the daemon exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("the daemon did not start listening within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    fn client(&self) -> Result<ServeClient, String> {
        ServeClient::connect(&format!("unix:{}", self.socket.display()))
            .map_err(|e| format!("cannot connect to the daemon: {e}"))
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn scrape(&self) -> Result<String, String> {
        self.client()?.metrics().map_err(|e| format!("metrics scrape failed: {e}"))
    }

    /// Asks the daemon to stop, waits for it, and returns its post-check
    /// line.
    fn shutdown(mut self) -> Result<String, String> {
        self.client()?.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        let mut out = String::new();
        if let Some(mut stdout) = child.stdout.take() {
            stdout.read_to_string(&mut out).map_err(|e| e.to_string())?;
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("the daemon exited with {status}"));
        }
        Ok(out)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_dir(RUN_DIR);
    }
}

/// Folds the daemon's `attempted failed ii_over_mii` line into `tally`.
fn absorb_daemon_checks(line: &str, tally: &mut Tally) -> Result<f64, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let parse = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (parse(0), parse(1), parse(2)) {
        (Some(attempted), Some(failed), Some(quality)) => {
            tally.check_many(attempted as u64, failed as u64, || {
                "the daemon's schedules failed re-verification".to_string()
            });
            Ok(quality)
        }
        _ => Err(format!("malformed daemon check line `{}`", line.trim())),
    }
}

/// True when a warm response carries the same document as the first
/// response to that request.  `Stats` answers carry live hit counters, so
/// those may grow; every other counter must stand still.
fn same_document(reference: &WireResponse, warm: &WireResponse) -> bool {
    match (reference, warm) {
        (WireResponse::Stats(r), WireResponse::Stats(w)) => {
            let frozen = |s: &SessionStats| {
                (s.compilations, s.unique_keys, s.sim_runs, s.verifications, s.disk_hits)
            };
            frozen(r) == frozen(w) && w.hits >= r.hits && w.verify_hits >= r.verify_hits
        }
        _ => reference == warm,
    }
}

/// The warm-up's two connections, as indices into [`mix`]: the Fig. 6
/// compile (the bulk) on one, the sweep probe and the resources request,
/// which then mostly hits, on the other.
const WARM_SPLIT: [[usize; 2]; 2] = [[0, 2], [3, 1]];

/// Starts a daemon and warms it with one pass of the mix; returns it with
/// the first response to each request.  The `Run` requests are split over
/// two connections (`WARM_SPLIT`) so the warm-up compiles on both cores;
/// `Stats` goes last, once the store is complete, so later answers must
/// match it.
fn start(n: usize) -> Result<(Daemon, Vec<WireResponse>), String> {
    let daemon = Daemon::spawn(n)?;
    let requests = mix();
    let mut refs: Vec<Option<WireResponse>> = vec![None; requests.len()];
    let warmed: Vec<Result<Vec<(usize, WireResponse)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = WARM_SPLIT
            .iter()
            .map(|share| {
                let (daemon, requests) = (&daemon, &requests);
                scope.spawn(move || -> Result<Vec<(usize, WireResponse)>, String> {
                    let mut client = daemon.client()?;
                    share.iter().map(|&k| Ok((k, requests[k].1.send(&mut client)?))).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("warm-up client panicked".into())))
            .collect()
    });
    for client in warmed {
        for (k, answer) in client? {
            refs[k] = Some(answer);
        }
    }
    let mut client = daemon.client()?;
    for (slot, (_, request)) in refs.iter_mut().zip(&requests) {
        if slot.is_none() {
            *slot = Some(request.send(&mut client)?);
        }
    }
    Ok((daemon, refs.into_iter().flatten().collect()))
}

/// What the closed-loop clients observed.
#[derive(Debug, Default)]
struct Load {
    /// Round-trip latencies in ms, per mix entry.
    latencies_ms: Vec<Vec<f64>>,
    /// `(seconds since the phase began, latency ms)` of every request.
    timeline: Vec<(f64, f64)>,
    /// Wall time of each complete round of the mix, in seconds.
    rounds: Vec<f64>,
    attempted: u64,
    completed: u64,
    errors: u64,
    mismatches: u64,
    wall_s: f64,
}

impl Load {
    fn all_ms(&self) -> Vec<f64> {
        self.latencies_ms.iter().flatten().copied().collect()
    }

    /// Median over one-second windows of each window's p99.  A window holds
    /// thousands of requests (tens beyond its p99), and the median keeps a
    /// noisy neighbour's burst in one window from setting the run's tail.
    fn p99_ms(&self) -> f64 {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for &(at_s, ms) in &self.timeline {
            let w = at_s as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(ms);
        }
        let p99s: Vec<f64> =
            windows.iter().filter(|w| !w.is_empty()).map(|w| percentile(w, 0.99)).collect();
        median(&p99s)
    }

    fn per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.completed as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Runs `THREADS` closed-loop clients for `seconds`.  Each client sends the
/// whole mix every round, in an order drawn from its seeded sampler.
fn load(daemon: &Daemon, refs: &[WireResponse], seconds: f64, seed: u64) -> Result<Load, String> {
    let requests = mix();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<Result<Load, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|client| {
                let requests = &requests;
                scope.spawn(move || -> Result<Load, String> {
                    let mut order: Vec<usize> = (0..requests.len()).collect();
                    let mut state = seed ^ (client as u64).wrapping_mul(0xA5A5_5A5A_0F0F_F0F1);
                    let mut client = daemon.client()?;
                    let mut out =
                        Load { latencies_ms: vec![Vec::new(); requests.len()], ..Load::default() };
                    while Instant::now() < deadline {
                        // A fresh order every round, so the two clients never
                        // phase-lock on the heavy requests.
                        for i in (1..order.len()).rev() {
                            order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
                        }
                        let round = Instant::now();
                        for &k in &order {
                            out.attempted += 1;
                            let t = Instant::now();
                            let result = requests[k].1.send(&mut client);
                            let ms = secs(t.elapsed()) * 1e3;
                            match result {
                                Ok(answer) => {
                                    out.completed += 1;
                                    out.latencies_ms[k].push(ms);
                                    out.timeline.push((secs(t - start), ms));
                                    if !same_document(&refs[k], &answer) {
                                        out.mismatches += 1;
                                    }
                                }
                                Err(e) => {
                                    out.errors += 1;
                                    eprintln!("request {} failed: {e}", requests[k].0);
                                }
                            }
                        }
                        out.rounds.push(secs(round.elapsed()));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut total = Load { latencies_ms: vec![Vec::new(); requests.len()], ..Load::default() };
    for client in per_client {
        let c = client?;
        for (all, mine) in total.latencies_ms.iter_mut().zip(c.latencies_ms) {
            all.extend(mine);
        }
        total.rounds.extend(c.rounds);
        total.timeline.extend(c.timeline);
        total.attempted += c.attempted;
        total.completed += c.completed;
        total.errors += c.errors;
        total.mismatches += c.mismatches;
    }
    total.wall_s = secs(start.elapsed());
    let n = total.completed as f64;
    eprintln!(
        "serve_warm: {} requests attempted, {} completed, {} errors; p99 over {} samples \
         ({} beyond it)",
        total.attempted,
        total.completed,
        total.errors,
        total.completed,
        (n - (0.99 * n).ceil()).max(0.0)
    );
    Ok(total)
}

/// Reads one Prometheus sample (`name` with its exact label set).
fn sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

fn store_event(text: &str, kind: &str, outcome: &str) -> f64 {
    sample(text, &format!("vliw_store_events_total{{kind=\"{kind}\",outcome=\"{outcome}\"}}"))
}

/// Server-side request time between two scrapes, over every request type:
/// `(median seconds interpolated within the histogram bucket, total seconds)`.
fn server_time(before: &str, after: &str) -> (f64, f64) {
    let name = "vliw_request_duration_seconds";
    let kinds = ["run", "stats"];
    let delta = |series: String| sample(after, &series) - sample(before, &series);
    let total: f64 = kinds.iter().map(|k| delta(format!("{name}_count{{type=\"{k}\"}}"))).sum();
    let sum_s: f64 = kinds.iter().map(|k| delta(format!("{name}_sum{{type=\"{k}\"}}"))).sum();
    let mut prev = (0.0, 0.0);
    for bound_ns in vliw_core::obs::LATENCY_BUCKET_BOUNDS_NS {
        let le = bound_ns as f64 / 1e9;
        let cum: f64 =
            kinds.iter().map(|k| delta(format!("{name}_bucket{{type=\"{k}\",le=\"{le}\"}}"))).sum();
        if total > 0.0 && cum >= total / 2.0 {
            let frac = if cum > prev.1 { (total / 2.0 - prev.1) / (cum - prev.1) } else { 1.0 };
            return (prev.0 + frac * (le - prev.0), sum_s);
        }
        prev = (le, cum);
    }
    (prev.0, sum_s)
}

/// Checks the scrapes taken around a timed phase: no compilation,
/// verification or simulation may happen while the daemon is warm.
fn check_warm(before: &str, after: &str, tally: &mut Tally) {
    let misses: Vec<String> = [("compile", "compiled"), ("verify", "verified"), ("sim", "run")]
        .into_iter()
        .filter_map(|(kind, outcome)| {
            let grew = store_event(after, kind, outcome) - store_event(before, kind, outcome);
            (grew != 0.0).then(|| format!("{grew} {kind}"))
        })
        .collect();
    tally.check(misses.is_empty(), || {
        format!("store misses during the timed phase: {}", misses.join(", "))
    });
}

fn check_load(load: &Load, tally: &mut Tally) {
    tally.check_many(load.attempted, load.errors, || "requests failed".to_string());
    tally.check_many(load.completed, load.mismatches, || {
        "warm responses differ from the first response".to_string()
    });
}

pub fn run(args: &Args, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    if args.trace {
        return traced(args, tally, m);
    }
    let mut setups = Vec::new();
    let mut warm = None;
    for n in 0..SETUPS {
        let t = Instant::now();
        let (daemon, refs) = start(n)?;
        setups.push(secs(t.elapsed()));
        if n + 1 < SETUPS {
            absorb_daemon_checks(&daemon.shutdown()?, tally)?;
        } else {
            warm = Some((daemon, refs));
        }
    }
    let (daemon, refs) = warm.ok_or("no daemon started")?;
    let before = daemon.scrape()?;
    let load = load(&daemon, &refs, args.seconds, args.seed)?;
    let after = daemon.scrape()?;
    check_warm(&before, &after, tally);
    check_load(&load, tally);
    let quality = absorb_daemon_checks(&daemon.shutdown()?, tally)?;

    EndToEnd {
        setup_s: median(&setups),
        units_s: &load.rounds,
        requests_ms: &load.all_ms(),
        req_p99_ms: load.p99_ms(),
        req_per_s: load.per_s(),
        // The daemon's memory, not the load generator's.
        peak_rss_mb: sample(&after, "vliw_peak_rss_kb") / 1024.0,
        ii_over_mii: quality,
    }
    .put(m);
    Ok(())
}

/// Median encode and decode time (µs) and size (bytes) of the frame that
/// carries `answer`.
fn codec(answer: &WireResponse) -> Result<(f64, f64, usize), String> {
    const REPS: usize = 64;
    let frame = &ResponseEnvelope { id: 1, body: answer.clone() }.serialize();
    let mut bytes = Vec::new();
    let mut enc = Vec::with_capacity(REPS);
    let mut dec = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        bytes.clear();
        let t = Instant::now();
        write_frame(&mut bytes, frame).map_err(|e| e.to_string())?;
        enc.push(secs(t.elapsed()) * 1e6);
        let t = Instant::now();
        let back = read_frame(&mut bytes.as_slice()).map_err(|e| e.to_string())?;
        dec.push(secs(t.elapsed()) * 1e6);
        if back.as_ref() != Some(frame) {
            return Err("a frame did not survive the codec".to_string());
        }
    }
    Ok((median(&enc), median(&dec), bytes.len()))
}

fn traced(args: &Args, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let loopgen_s =
        call_median_s(9, 5, || generate_corpus(&CorpusConfig::small(LOOPS, CORPUS_SEED)));
    let (daemon, refs) = start(0)?;

    // Half the time untraced, half with the daemon's scrapes and CPU read
    // around the phase; the p50 ratio is the tracing overhead.
    let untraced = load(&daemon, &refs, args.seconds / 2.0, args.seed)?;
    check_load(&untraced, tally);
    let before = daemon.scrape()?;
    let cpu0 = cpu_s(&daemon.pid().to_string());
    let traced = load(&daemon, &refs, args.seconds / 2.0, args.seed)?;
    let cpu = cpu_s(&daemon.pid().to_string()) - cpu0;
    let after = daemon.scrape()?;
    check_warm(&before, &after, tally);
    check_load(&traced, tally);
    absorb_daemon_checks(&daemon.shutdown()?, tally)?;

    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut sizes = Vec::new();
    for answer in &refs {
        let (e, d, size) = codec(answer)?;
        enc.push(e);
        dec.push(d);
        sizes.push(size as f64);
    }

    let client_ms = traced.all_ms();
    let client_sum_s: f64 = client_ms.iter().sum::<f64>() / 1e3;
    let (server_p50_s, server_sum_s) = server_time(&before, &after);

    put_stage_metrics(m, &Layers::default());
    m.put("analysis.pareto_busy_ms", 0.0, "ms");
    m.put("analysis.pareto_rows", 0.0, "count");
    m.put("loopgen.busy_ms", loopgen_s * 1e3, "ms");
    let compiled =
        store_event(&after, "compile", "compiled") - store_event(&before, "compile", "compiled");
    let hits = store_event(&after, "compile", "hit") - store_event(&before, "compile", "hit");
    crate::put_session_metrics(m, compiled as u64, hits as u64, traced.wall_s, cpu);
    let names: Vec<&str> = mix().iter().map(|(name, _)| *name).collect();
    let driver = |name: &str| {
        names.iter().position(|n| *n == name).map_or(0.0, |k| median(&traced.latencies_ms[k]))
    };
    for name in ["fig3", "copy_cost", "fig4", "fig6", "resources", "ipc", "verify", "sweep_pruned"]
    {
        m.put(format!("experiments.{name}_ms"), driver(name), "ms");
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.put("protocol.encode_us", mean(&enc), "us");
    m.put("protocol.decode_us", mean(&dec), "us");
    m.put("protocol.frame_kb", mean(&sizes) / 1024.0, "KB");
    m.put("serve.server_p50_ms", server_p50_s * 1e3, "ms");
    // Mean client round trip minus mean server-side handling: socket, codec
    // and scheduling, exact where the bucketed p50 is not.
    let overhead_s = (client_sum_s - server_sum_s) / client_ms.len().max(1) as f64;
    m.put("serve.client_overhead_ms", overhead_s * 1e3, "ms");
    let untraced_p50 = median(&untraced.all_ms());
    let ratio = if untraced_p50 > 0.0 { median(&client_ms) / untraced_p50 } else { 0.0 };
    let coverage = if client_sum_s > 0.0 { server_sum_s / client_sum_s } else { 0.0 };
    m.put("trace.wall_ratio", ratio, "ratio");
    m.put("trace.coverage", coverage, "ratio");
    Ok(())
}
