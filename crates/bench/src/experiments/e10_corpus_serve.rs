//! E10 — the serving layer: concurrent corpus queries through
//! `twx-corpus::QueryService`, measured as a service would be.
//!
//! Four measurements:
//!
//! * **Throughput/latency sweep** — a fixed load-generator pool fires a
//!   query mix at services over the same corpus sharded 1/2/4/8 ways,
//!   recording sustained throughput and the p50/p95/p99 of the
//!   submit-to-answer latency. More shards = more parallelism per
//!   request but more queue traffic; the sweep shows where that trades
//!   off for this corpus size.
//! * **Saturation** — a deliberately under-provisioned service (one
//!   worker, tiny admission queue) takes a burst of submissions while
//!   its worker is held; the point is that overload shows up as *typed,
//!   counted rejections* (`ServiceError::Overloaded`), exactly as many as
//!   the queue cannot hold, while every admitted request still completes
//!   exactly.
//! * **Connection sweep** — the full TCP path through the event-loop
//!   server: 1 / 1k / 10k concurrent clients (quick: 1 / 100 / 1k) per
//!   wire framing (NDJSON and binary frames), measuring connect (≈
//!   accept) latency, request throughput, and request percentiles. The
//!   server is the sibling `twx-serve` binary when one is built (its
//!   own process, its own descriptor budget); otherwise an in-process
//!   event loop over the same `ProtoHandler`.
//! * **Admission probe** — 128 connection attempts against
//!   `--max-conns 64`: every refusal must be a *typed* `overloaded`
//!   reply, and admitted + rejected must account for every attempt.
//!
//! [`run_full`] also returns the structured summary that the harness
//! exports as the top-level `e10` field of `BENCH_HARNESS.json`
//! (`shards`, `saturation`, `conn_sweep`, `admission`).

use crate::table::Table;
use crate::RunCfg;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use treewalk::{Backend, Engine};
use twx_corpus::proto::ProtoHandler;
use twx_corpus::{Corpus, QueryService, ServiceConfig, ServiceError};
use twx_netio::frame::{encode_frame, HEADER_BYTES, MAGIC};
use twx_netio::{NetStats, ServerConfig};
use twx_obs::json::Json;
use twx_obs::Histogram;
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::rng::SplitMix64;
use twx_xtree::Catalog;

/// The serve mix: a cheap scan, a transitive-closure walk, and a
/// filter-heavy query (all cached after their first compile).
const QUERIES: [&str; 3] = [
    "down*[a]",
    "(down | right)*[b]",
    "down*[<down[c]> or <down[d]>]",
];

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn build_corpus(cfg: &RunCfg, n_shards: usize) -> Arc<Corpus> {
    let (n_docs, doc_size) = if cfg.quick { (12, 60) } else { (48, 400) };
    let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
    let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(10));
    let mut b = Corpus::builder(Arc::clone(&catalog), n_shards);
    for _ in 0..n_docs {
        b.add_document(random_document_in(
            Shape::DocumentLike,
            doc_size,
            &catalog,
            &mut rng,
        ));
    }
    Arc::new(b.build())
}

struct SweepPoint {
    n_shards: usize,
    workers: usize,
    requests: u64,
    throughput_qps: f64,
    p50_us: f64,
    p90_us: f64,
    p95_us: f64,
    p99_us: f64,
    p999_us: f64,
    timeouts: u64,
}

/// Fires `gen_threads × per_thread` queries at a service and collects
/// the latency distribution.
fn sweep(cfg: &RunCfg, n_shards: usize) -> SweepPoint {
    let corpus = build_corpus(cfg, n_shards);
    let workers = 4;
    let service = QueryService::new(
        corpus,
        Engine::with_backend(Backend::Product),
        ServiceConfig {
            workers,
            queue_capacity: 512,
            default_timeout: None,
            slowlog_capacity: 16,
        },
    );
    // warm the plan cache so the sweep measures serving, not compiling
    for q in QUERIES {
        service.query(q).expect("warmup");
    }
    let gen_threads = 4usize;
    let per_thread = if cfg.quick { 12usize } else { 64 };
    let t0 = std::time::Instant::now();
    // each generator records into its own histogram; the per-thread
    // histograms merge into one distribution at the end (the same
    // drain-and-merge shape the service uses for its counters)
    let hist: Histogram = std::thread::scope(|s| {
        let handles: Vec<_> = (0..gen_threads)
            .map(|g| {
                let service = &service;
                s.spawn(move || {
                    let mut h = Histogram::default();
                    for i in 0..per_thread {
                        let q = QUERIES[(g + i) % QUERIES.len()];
                        let answer = service.query(q).expect("sweep query");
                        h.record(answer.latency.as_nanos() as u64);
                    }
                    h
                })
            })
            .collect();
        handles
            .into_iter()
            .fold(Histogram::default(), |mut acc, h| {
                acc.merge(&h.join().unwrap());
                acc
            })
    });
    let wall = t0.elapsed().as_secs_f64();
    let stats = service.shutdown();
    SweepPoint {
        n_shards,
        workers,
        requests: hist.count(),
        throughput_qps: hist.count() as f64 / wall.max(1e-9),
        p50_us: ns_to_us(hist.percentile(0.50)),
        p90_us: ns_to_us(hist.percentile(0.90)),
        p95_us: ns_to_us(hist.percentile(0.95)),
        p99_us: ns_to_us(hist.percentile(0.99)),
        p999_us: ns_to_us(hist.percentile(0.999)),
        timeouts: stats.timeouts,
    }
}

struct Saturation {
    submitted: u64,
    admitted: u64,
    rejected: u64,
    queue_capacity: usize,
}

/// Bursts submissions at a one-worker service with a tiny queue; counts
/// the typed rejections and verifies every admitted request completes.
///
/// The worker is held until the whole burst is submitted, so the outcome
/// does not depend on how fast it drains: each request fans out into one
/// item per shard, `QUEUE_CAPACITY / SHARDS` requests fit, and every
/// later one is refused.
fn saturate(cfg: &RunCfg) -> Saturation {
    const SHARDS: usize = 2;
    const QUEUE_CAPACITY: usize = 6;
    let corpus = build_corpus(cfg, SHARDS);
    let n_docs = corpus.n_docs();
    let service = QueryService::new(
        corpus,
        Engine::with_backend(Backend::Product),
        ServiceConfig {
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            default_timeout: None,
            slowlog_capacity: 16,
        },
    );
    let zigzag = "(down/right | up)*[a]";
    service.query(zigzag).expect("warmup");
    let burst = if cfg.quick { 80u64 } else { 300 };
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    let hold = service.hold_workers();
    for _ in 0..burst {
        match service.submit(zigzag) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    drop(hold);
    let admitted = tickets.len() as u64;
    assert_eq!(
        admitted,
        (QUEUE_CAPACITY / SHARDS) as u64,
        "a held queue admits exactly what fits"
    );
    let stats = service.shutdown();
    for t in tickets {
        let answer = t.wait();
        assert_eq!(
            answer.per_doc.len(),
            n_docs,
            "admitted requests complete exactly"
        );
    }
    assert_eq!(stats.rejected, rejected);
    Saturation {
        submitted: burst,
        admitted,
        rejected,
        queue_capacity: QUEUE_CAPACITY,
    }
}

// ---- connection-scale sweep over the event-loop server ----

/// Wire framing a bench client speaks (the serving tier negotiates per
/// connection on the first byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wire {
    Ndjson,
    Binary,
}

impl Wire {
    fn name(self) -> &'static str {
        match self {
            Wire::Ndjson => "ndjson",
            Wire::Binary => "binary",
        }
    }
}

/// Writes one request through a shared borrow (`&TcpStream` is `Write`),
/// so the client holds exactly one descriptor per connection — at the
/// 10k point a cloned read half would double the budget past the fd
/// hard cap.
fn send_request(mut stream: &TcpStream, wire: Wire, payload: &str) -> std::io::Result<()> {
    // one write per request either way: a separate write for the NDJSON
    // newline would sit in Nagle's buffer waiting out a delayed ACK
    match wire {
        Wire::Ndjson => {
            let mut buf = Vec::with_capacity(payload.len() + 1);
            buf.extend_from_slice(payload.as_bytes());
            buf.push(b'\n');
            stream.write_all(&buf)
        }
        Wire::Binary => stream.write_all(&encode_frame(payload.as_bytes())),
    }
}

fn read_reply(reader: &mut BufReader<TcpStream>, wire: Wire) -> std::io::Result<String> {
    match wire {
        Wire::Ndjson => {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            Ok(line)
        }
        Wire::Binary => {
            let mut header = [0u8; HEADER_BYTES];
            reader.read_exact(&mut header)?;
            if header[..4] != MAGIC {
                return Err(std::io::Error::other("bad reply frame magic"));
            }
            let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
            let mut payload = vec![0u8; len];
            reader.read_exact(&mut payload)?;
            String::from_utf8(payload).map_err(|_| std::io::Error::other("non-utf8 reply"))
        }
    }
}

/// The sibling `twx-serve` binary, if the workspace has built one (next
/// to the running executable, or one directory up when running from a
/// `deps/` test binary).
fn serve_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let found = [Some(dir), dir.parent()]
        .into_iter()
        .flatten()
        .map(|d| d.join("twx-serve"))
        .find(|c| c.is_file());
    found
}

/// A server for one sweep point: the real `twx-serve` binary in its own
/// process (own descriptor budget — required for the 10k point), or an
/// in-process event loop over the same `ProtoHandler` when no binary is
/// around (plain `cargo test`).
enum BenchServer {
    Proc(std::process::Child),
    InProc {
        thread: std::thread::JoinHandle<std::io::Result<()>>,
        handler: Arc<ProtoHandler>,
    },
}

impl BenchServer {
    fn start(cfg: &RunCfg, max_conns: usize) -> (BenchServer, String) {
        if let Some(bin) = serve_binary() {
            let mut child = std::process::Command::new(bin)
                .args([
                    "--port",
                    "0",
                    "--shards",
                    "2",
                    "--workers",
                    "4",
                    "--queue",
                    "1024",
                    "--synthetic",
                    "8x60",
                    "--seed",
                    &cfg.seed_for(10).to_string(),
                    "--max-conns",
                    &max_conns.to_string(),
                ])
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn twx-serve");
            let stdout = child.stdout.take().expect("child stdout");
            let mut banner = String::new();
            BufReader::new(stdout)
                .read_line(&mut banner)
                .expect("read banner");
            let addr = banner
                .trim()
                .strip_prefix("twx-serve listening on ")
                .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
                .to_string();
            return (BenchServer::Proc(child), addr);
        }
        // in-process fallback: same handler, same event loop, shared
        // descriptor budget (the quick counts fit comfortably)
        let catalog = Arc::new(Catalog::from_names(["a", "b", "c", "d"]));
        let mut rng = SplitMix64::seed_from_u64(cfg.seed_for(10));
        let mut b = Corpus::builder(Arc::clone(&catalog), 2);
        for _ in 0..8 {
            b.add_document(random_document_in(Shape::Recursive, 60, &catalog, &mut rng));
        }
        let service = QueryService::new(
            Arc::new(b.build()),
            Engine::with_backend(Backend::Product),
            ServiceConfig {
                workers: 4,
                queue_capacity: 1024,
                default_timeout: None,
                slowlog_capacity: 16,
            },
        );
        let net = Arc::new(NetStats::default());
        let handler = Arc::new(ProtoHandler::new(service, Arc::clone(&net), max_conns));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let server_cfg = ServerConfig {
            max_conns,
            dispatchers: 4,
            ..ServerConfig::default()
        };
        let loop_handler = Arc::clone(&handler);
        let thread = std::thread::Builder::new()
            .name("e10-inproc-serve".into())
            .spawn(move || twx_netio::serve(listener, loop_handler, server_cfg, net))
            .expect("spawn server thread");
        (BenchServer::InProc { thread, handler }, addr)
    }

    /// Asks the server to shut down over the wire, then reaps it.
    fn stop(self, addr: &str) {
        if let Ok(mut s) = TcpStream::connect(addr) {
            if writeln!(s, r#"{{"op":"shutdown"}}"#).is_ok() {
                let mut reply = String::new();
                let _ = BufReader::new(&s).read_line(&mut reply);
            }
        }
        match self {
            BenchServer::Proc(mut child) => {
                // bounded wait, then the hammer
                for _ in 0..100 {
                    if child.try_wait().expect("try_wait").is_some() {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                let _ = child.kill();
                let _ = child.wait();
            }
            BenchServer::InProc { thread, handler } => {
                let _ = thread.join().expect("server thread");
                // the loop and its dispatchers are gone: this is the
                // last handler reference — drain the service workers
                Arc::try_unwrap(handler)
                    .unwrap_or_else(|_| unreachable!("loop dropped its handler refs"))
                    .finish();
            }
        }
    }
}

struct ConnPoint {
    framing: &'static str,
    conns: usize,
    requests: u64,
    throughput_qps: f64,
    connect_p50_us: f64,
    connect_p99_us: f64,
    p50_us: f64,
    p99_us: f64,
    accept_failures: u64,
    io_errors: u64,
    overloaded_replies: u64,
}

/// One sweep point: open `conns` concurrent connections (≤16 client
/// threads), then fire queries over every connection and read each
/// reply. Connect latency approximates accept latency; closes are
/// abortive (RST) so tens of thousands of sockets leave no TIME_WAIT
/// corpses to exhaust the ephemeral-port range.
fn measure_conn_point(addr: &str, wire: Wire, conns: usize) -> ConnPoint {
    let reqs_per_conn = if conns == 1 { 256u64 } else { 1 };
    let threads = conns.min(16);
    let barrier = Barrier::new(threads + 1);
    let (t0, t1, per_thread) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut connect_h = Histogram::default();
                    let mut req_h = Histogram::default();
                    let mut accept_failures = 0u64;
                    let mut io_errors = 0u64;
                    let mut overloaded = 0u64;
                    let mut socks: Vec<BufReader<TcpStream>> = Vec::new();
                    // connections t, t+threads, t+2·threads, …
                    for _ in (t..conns).step_by(threads) {
                        let c0 = std::time::Instant::now();
                        match TcpStream::connect(addr) {
                            Ok(stream) => {
                                connect_h.record(c0.elapsed().as_nanos() as u64);
                                let _ = stream.set_nodelay(true);
                                let _ = twx_netio::set_linger_abort(&stream);
                                socks.push(BufReader::new(stream));
                            }
                            Err(_) => accept_failures += 1,
                        }
                    }
                    barrier.wait(); // all connections up: hold them open
                    for sock in &mut socks {
                        for _ in 0..reqs_per_conn {
                            let r0 = std::time::Instant::now();
                            let sent = send_request(
                                sock.get_ref(),
                                wire,
                                r#"{"op":"query","query":"down*[a]"}"#,
                            )
                            .and_then(|_| read_reply(sock, wire));
                            match sent {
                                Ok(reply) => {
                                    req_h.record(r0.elapsed().as_nanos() as u64);
                                    if reply.contains(r#""error":"overloaded""#) {
                                        overloaded += 1;
                                    }
                                }
                                Err(_) => io_errors += 1,
                            }
                        }
                    }
                    barrier.wait(); // full-concurrency window ends here
                    (connect_h, req_h, accept_failures, io_errors, overloaded)
                })
            })
            .collect();
        barrier.wait();
        let t0 = std::time::Instant::now();
        barrier.wait();
        let t1 = std::time::Instant::now();
        let per_thread: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (t0, t1, per_thread)
    });
    let mut connect_h = Histogram::default();
    let mut req_h = Histogram::default();
    let mut accept_failures = 0;
    let mut io_errors = 0;
    let mut overloaded = 0;
    for (c, r, af, io, ov) in per_thread {
        connect_h.merge(&c);
        req_h.merge(&r);
        accept_failures += af;
        io_errors += io;
        overloaded += ov;
    }
    let wall = t1.duration_since(t0).as_secs_f64();
    ConnPoint {
        framing: wire.name(),
        conns,
        requests: req_h.count(),
        throughput_qps: req_h.count() as f64 / wall.max(1e-9),
        connect_p50_us: ns_to_us(connect_h.percentile(0.50)),
        connect_p99_us: ns_to_us(connect_h.percentile(0.99)),
        p50_us: ns_to_us(req_h.percentile(0.50)),
        p99_us: ns_to_us(req_h.percentile(0.99)),
        accept_failures,
        io_errors,
        overloaded_replies: overloaded,
    }
}

/// The connection sweep: for each framing, one fresh server per
/// connection count.
fn conn_sweep(cfg: &RunCfg) -> Vec<ConnPoint> {
    let counts: &[usize] = if cfg.quick {
        &[1, 100, 1000]
    } else {
        &[1, 1000, 10_000]
    };
    // client-side descriptors: one per held connection, tripled for the
    // in-process fallback (server sockets share this process's budget)
    twx_netio::raise_nofile_limit(3 * *counts.last().unwrap() as u64 + 512);
    let mut points = Vec::new();
    for wire in [Wire::Ndjson, Wire::Binary] {
        for &c in counts {
            // headroom over the cap so the sweep itself is never refused
            let (server, addr) = BenchServer::start(cfg, c + 16);
            points.push(measure_conn_point(&addr, wire, c));
            server.stop(&addr);
        }
    }
    points
}

struct Admission {
    max_conns: usize,
    attempted: u64,
    admitted: u64,
    rejected: u64,
    server_rejected: u64,
}

/// Pulls one integer counter out of a rendered stats line.
fn stats_counter(stats: &str, key: &str) -> u64 {
    let tagged = format!("\"{key}\":");
    let at = stats
        .find(&tagged)
        .unwrap_or_else(|| panic!("stats line missing {key}: {stats}"))
        + tagged.len();
    stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse::<u64>()
        .expect("counter")
}

/// 128 connection attempts against a 64-connection cap: refusals must be
/// *typed* `overloaded` replies (read-only probe — the rejected socket
/// gets one line and a clean close), and the server's own `conns_rejected`
/// counter must agree with what the clients saw.
///
/// Classification is deterministic, not timing-based: the probe polls
/// `stats` over the control connection until every accept has been
/// decided, then shuts the server down — a rejected socket reads its
/// typed line, an admitted one reads clean EOF, and neither read waits
/// on a guessed timeout (which misclassifies under CPU contention).
fn admission_probe(cfg: &RunCfg) -> Admission {
    const CAP: usize = 64;
    const ATTEMPTS: usize = 128;
    let (server, addr) = BenchServer::start(cfg, CAP);
    // the control connection occupies one admission slot — open it first
    // so it is deterministically admitted
    let control = TcpStream::connect(&addr).expect("control connect");
    control
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("control timeout");
    let mut control_reader = BufReader::new(control.try_clone().expect("clone"));
    let probes: Vec<TcpStream> = (0..ATTEMPTS)
        .map(|_| TcpStream::connect(&addr).expect("probe connect"))
        .collect();
    // wait until the server has admitted or rejected every probe
    let mut server_rejected;
    loop {
        send_request(&control, Wire::Ndjson, r#"{"op":"stats"}"#).expect("control stats");
        let stats = read_reply(&mut control_reader, Wire::Ndjson).expect("control reply");
        server_rejected = stats_counter(&stats, "conns_rejected");
        let open = stats_counter(&stats, "conns_open");
        // control + probes all accounted for (control is 1 open conn)
        if open + server_rejected > ATTEMPTS as u64 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // every rejected socket now has its line (and FIN) in flight; closing
    // the server turns every admitted socket into clean EOF
    send_request(&control, Wire::Ndjson, r#"{"op":"shutdown"}"#).expect("control shutdown");
    let _ = read_reply(&mut control_reader, Wire::Ndjson);
    let mut rejected = 0u64;
    let mut admitted = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = probes
            .chunks(ATTEMPTS / 16)
            .map(|chunk| {
                s.spawn(move || {
                    let mut rej = 0u64;
                    let mut adm = 0u64;
                    for sock in chunk {
                        sock.set_read_timeout(Some(std::time::Duration::from_secs(60)))
                            .expect("timeout");
                        let mut line = String::new();
                        match BufReader::new(sock).read_line(&mut line) {
                            Ok(n) if n > 0 => {
                                assert!(
                                    line.contains(r#""error":"overloaded""#),
                                    "untyped refusal: {line}"
                                );
                                rej += 1;
                            }
                            _ => adm += 1, // clean EOF: the connection was in
                        }
                    }
                    (rej, adm)
                })
            })
            .collect();
        for h in handles {
            let (r, a) = h.join().unwrap();
            rejected += r;
            admitted += a;
        }
    });
    drop(control);
    drop(probes);
    server.stop(&addr);
    Admission {
        max_conns: CAP,
        attempted: ATTEMPTS as u64,
        admitted,
        rejected,
        server_rejected,
    }
}

/// Runs E10, returning the rendered table and the structured summary
/// exported as the `e10` field of `BENCH_HARNESS.json`.
pub fn run_full(cfg: &RunCfg) -> (Table, Json) {
    let mut table = Table::new(
        "E10: corpus serving — shard sweep, saturation, connection-scale event loop, admission",
        &[
            "shards", "workers", "requests", "qps", "p50", "p90", "p95", "p99", "p999", "timeouts",
        ],
    );
    let shard_counts: &[usize] = if cfg.quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut shard_rows = Vec::new();
    for &n in shard_counts {
        let p = sweep(cfg, n);
        table.row(vec![
            p.n_shards.to_string(),
            p.workers.to_string(),
            p.requests.to_string(),
            format!("{:.0}", p.throughput_qps),
            format!("{:.0}us", p.p50_us),
            format!("{:.0}us", p.p90_us),
            format!("{:.0}us", p.p95_us),
            format!("{:.0}us", p.p99_us),
            format!("{:.0}us", p.p999_us),
            p.timeouts.to_string(),
        ]);
        shard_rows.push(
            Json::obj()
                .field("n_shards", p.n_shards)
                .field("workers", p.workers)
                .field("requests", p.requests)
                .field("throughput_qps", p.throughput_qps)
                .field("p50_us", p.p50_us)
                .field("p90_us", p.p90_us)
                .field("p95_us", p.p95_us)
                .field("p99_us", p.p99_us)
                .field("p999_us", p.p999_us)
                .field("timeouts", p.timeouts),
        );
    }
    let sat = saturate(cfg);
    table.row(vec![
        "2".into(),
        "1".into(),
        sat.submitted.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{} rejected", sat.rejected),
    ]);
    table.note(
        "sweep rows: 4 generator threads over a shared-catalog corpus, Product backend, warm plan \
         cache; log-bucketed histogram percentiles of submit-to-answer latency (per-thread \
         histograms merged)",
    );
    table.note(
        "saturation row: burst at a 1-worker service with a 6-slot admission queue — overload is \
         a typed Overloaded rejection, never silent queueing",
    );
    let mut conn_rows = Vec::new();
    for p in conn_sweep(cfg) {
        table.row(vec![
            format!("conns={}", p.conns),
            p.framing.to_string(),
            p.requests.to_string(),
            format!("{:.0}", p.throughput_qps),
            format!("{:.0}us", p.p50_us),
            "-".into(),
            "-".into(),
            format!("{:.0}us", p.p99_us),
            "-".into(),
            format!("{} acceptfail", p.accept_failures),
        ]);
        conn_rows.push(
            Json::obj()
                .field("framing", p.framing)
                .field("conns", p.conns)
                .field("requests", p.requests)
                .field("throughput_qps", p.throughput_qps)
                .field("connect_p50_us", p.connect_p50_us)
                .field("connect_p99_us", p.connect_p99_us)
                .field("p50_us", p.p50_us)
                .field("p99_us", p.p99_us)
                .field("accept_failures", p.accept_failures)
                .field("io_errors", p.io_errors)
                .field("overloaded_replies", p.overloaded_replies),
        );
    }
    let adm = admission_probe(cfg);
    table.row(vec![
        "admission".into(),
        format!("cap={}", adm.max_conns),
        adm.attempted.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{} rejected", adm.rejected),
    ]);
    table.note(
        "conns=N rows: N concurrent TCP clients (≤16 client threads) against the event-loop \
         server per wire framing; p50/p99 are per-request round-trip latency, connect \
         percentiles are in the JSON summary",
    );
    table.note(
        "admission row: 128 connection attempts against --max-conns 64 — every refusal is a \
         typed overloaded reply, counted by the server's conns_rejected",
    );
    let summary = Json::obj()
        .field("shards", Json::Arr(shard_rows))
        .field(
            "saturation",
            Json::obj()
                .field("submitted", sat.submitted)
                .field("admitted", sat.admitted)
                .field("rejected", sat.rejected)
                .field("queue_capacity", sat.queue_capacity),
        )
        .field("conn_sweep", Json::Arr(conn_rows))
        .field(
            "admission",
            Json::obj()
                .field("max_conns", adm.max_conns)
                .field("attempted", adm.attempted)
                .field("admitted", adm.admitted)
                .field("rejected", adm.rejected)
                .field("server_rejected", adm.server_rejected),
        );
    (table, summary)
}

/// Table-only entry point (`run_all` and the experiment registry).
pub fn run(cfg: &RunCfg) -> Table {
    run_full(cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(j: &'a Json, key: &str) -> &'a Json {
        match j {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("{key}: not an object"),
        }
    }

    fn int(j: &Json) -> u64 {
        match j {
            Json::Int(n) => *n,
            _ => panic!("not an int: {j:?}"),
        }
    }

    #[test]
    fn quick_run_produces_table_and_summary() {
        let (t, summary) = run_full(&RunCfg::quick());
        assert_eq!(
            t.rows.len(),
            3 + 1 + 6 + 1,
            "3 sweep rows + saturation + 6 conn points + admission"
        );
        let rendered = summary.render();
        assert!(rendered.contains("p99_us"));
        assert!(rendered.contains("saturation"));
        assert!(rendered.contains("conn_sweep"));
        // the burst against a 6-slot queue must actually overload it
        let sat = get(&summary, "saturation");
        assert!(
            int(get(sat, "rejected")) > 0,
            "saturation produced no rejections"
        );
        // with the worker held, a 2-shard request takes 2 of the 6 slots:
        // 3 requests are admitted and every other one is refused
        assert_eq!(int(get(sat, "admitted")), 3);
        assert_eq!(int(get(sat, "rejected")), int(get(sat, "submitted")) - 3);
        // every conn point: both framings, no accept failures, no
        // mid-stream I/O errors, every request answered
        match get(&summary, "conn_sweep") {
            Json::Arr(points) => {
                assert_eq!(points.len(), 6);
                for p in points {
                    assert_eq!(int(get(p, "accept_failures")), 0);
                    assert_eq!(int(get(p, "io_errors")), 0);
                    assert!(int(get(p, "requests")) > 0);
                }
            }
            _ => panic!("conn_sweep is an array"),
        }
        // admission accounting: every attempt classified, refusals typed
        // and agreeing with the server's own counter
        let adm = get(&summary, "admission");
        let attempted = int(get(adm, "attempted"));
        let admitted = int(get(adm, "admitted"));
        let rejected = int(get(adm, "rejected"));
        assert_eq!(admitted + rejected, attempted);
        assert!(rejected > 0, "cap of 64 never refused 128 attempts");
        assert_eq!(rejected, int(get(adm, "server_rejected")));
    }
}
