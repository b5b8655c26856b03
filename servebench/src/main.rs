//! `twx-servebench` — drives the release `twx-serve` over TCP with one of
//! two seeded workloads, checks every reply, and prints the metrics as
//! one JSON line (the last line of stdout).
//!
//! ```text
//! twx-servebench --workload hot-read|live-write --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the root of a checkout: it builds `twx-serve` there
//! (`cargo build --release`), writes its inputs under `.servebench/`
//! and removes them when it ends.
//!
//! The client has [`CONNS`] connections (0 NDJSON, 1 binary frames).
//! The server is first started [`SETUP_REPEATS`] times on the same files;
//! the median time to its `listening` line is `setup_s`. The measured
//! time is then split over [`LEGS`] fresh servers, and each leg runs:
//!
//! 1. **warm-up**: the pool queries once each (unmeasured);
//! 2. **serial** ([`SERIAL_SHARE`] of the leg, less the probe's share):
//!    one thread sends the op stream in order, each op on the connection
//!    it names and only after the previous reply; gives the latency
//!    figures;
//! 3. **throughput** (up to the probe): each connection, on a thread of
//!    its own, sends its next op only after its previous reply; gives
//!    `throughput_ops`;
//! 4. **write probe** (read-only workloads, the last
//!    `workload::PROBE_SHARE` of the leg): updates sent like the serial
//!    phase, which give those workloads' `update_*` figures.
//!
//! Each measured phase is cut into [`WINDOWS`] windows and its figures
//! come from the calmest of them (see [`Windows`]), pooled over the legs.
//!
//! With `--trace 1` it then replays the stream in-process and reports the
//! per-layer metrics instead (see `replay`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use twx_obs::json::parse as parse_json;
use twx_servebench::client::{closed_loop, on_all, serial, Conn, ConnLog, Sample};
use twx_servebench::oracle::{check, u64_field, Checked, PhaseRun, Verdict};
use twx_servebench::replay;
use twx_servebench::server::{self, Server};
use twx_servebench::stats::{median, percentile, trimmed_mean, Metrics};
use twx_servebench::workload::{generate, Inputs, Op, OpKind, Workload, CONNS, PROBE_SHARE};

/// Server starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Fresh servers the measured phases are split over. Each leg starts
/// from the corpus files and runs every phase for a `LEGS`-th of
/// `--seconds`, and the figures pool the legs' samples, so they do not
/// hang on how one process's threads happened to land on the CPUs.
const LEGS: usize = 5;

/// Share of `--seconds` given to the serial phase; the throughput phase
/// gets the rest.
const SERIAL_SHARE: f64 = 0.7;

/// Generator health: a serial phase in which the client took more than
/// this share of the host's CPU is invalid, and the legs are run again
/// on fresh servers. When every attempt is invalid the run fails without
/// a result line, so a client that starved the server never reads as a
/// regression of the program.
const CLIENT_CPU_LIMIT: f64 = 0.25;
const ATTEMPTS: usize = 2;

/// Equal windows each measured phase of a leg is cut into. The figures
/// of a phase come from its calmest windows: those in which the
/// hypervisor stole the least CPU time from the host (see
/// [`calm_windows`]).
const WINDOWS: usize = 10;
const CALM_SHARE: f64 = 0.4;

/// A measured phase cut into [`WINDOWS`] equal windows, with the share
/// of the host's CPU time the hypervisor gave other guests in each.
///
/// On a shared virtual machine that share comes in bursts, and every
/// wall-clock figure of the phase moves with it. Keeping the samples of
/// the windows with the least steal drops the bursts. The windows are
/// chosen by the host's steal, which the program does not cause, never
/// by the figures themselves.
struct Windows {
    start: Instant,
    len: Duration,
    steal: Vec<f64>,
}

impl Windows {
    /// Cuts `total` from `start` into windows and returns a recorder
    /// that is told each window's end in turn.
    fn begin(start: Instant, total: Duration) -> (Windows, StealMark) {
        let w = Windows {
            start,
            len: total / WINDOWS as u32,
            steal: Vec::with_capacity(WINDOWS),
        };
        (w, StealMark(server::host_steal_seconds().unwrap_or(0.0)))
    }

    /// End of window `k` (0-based).
    fn end(&self, k: usize) -> Instant {
        self.start + self.len * (k as u32 + 1)
    }

    /// Closes the current window.
    fn close(&mut self, mark: &mut StealMark) {
        let now = server::host_steal_seconds().unwrap_or(0.0);
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let span = self.len.as_secs_f64() * host_cpus;
        self.steal.push(if span > 0.0 {
            (now - mark.0) / span
        } else {
            0.0
        });
        mark.0 = now;
    }

    /// The window `t` falls in; `None` past the last one.
    fn index(&self, t: Instant) -> Option<usize> {
        let k = (t.saturating_duration_since(self.start).as_secs_f64() / self.len.as_secs_f64())
            as usize;
        (k < self.steal.len()).then_some(k)
    }

    /// Whether a sample that ended at `t` counts.
    fn keeps(&self, calm: &[bool], t: Instant) -> bool {
        self.index(t).is_some_and(|k| calm[k])
    }

    fn describe(&self) -> String {
        let steal: Vec<String> = self.steal.iter().map(|s| format!("{s:.3}")).collect();
        format!("steal per window: {}", steal.join(" "))
    }
}

/// The host's steal counter when the current window began, seconds.
struct StealMark(f64);

/// Which windows of one phase count, per leg: those with no more steal
/// than the window at the [`CALM_SHARE`] rank over every leg's windows.
/// A leg caught in a burst gives few windows; ties all count, so on a
/// quiet host every leg gives most of its windows.
fn calm_windows(legs: &[&Windows]) -> Vec<Vec<bool>> {
    let mut all: Vec<f64> = legs.iter().flat_map(|w| w.steal.iter().copied()).collect();
    all.sort_by(f64::total_cmp);
    let rank = (all.len() as f64 * CALM_SHARE).ceil() as usize;
    let limit = all.get(rank.saturating_sub(1)).copied().unwrap_or(0.0);
    legs.iter()
        .map(|w| w.steal.iter().map(|s| *s <= limit).collect())
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Server-side counters from the `stats` op.
#[derive(Clone, Copy, Default)]
struct Stats {
    plan_hits: u64,
    plan_misses: u64,
    result_hits: u64,
    result_misses: u64,
    carried: u64,
    invalidated: u64,
    updates: u64,
    rejected: u64,
    stalls: u64,
}

impl Stats {
    fn fetch(conn: &mut Conn) -> Result<Stats, String> {
        let reply = conn
            .roundtrip(br#"{"op":"stats"}"#)
            .map_err(|e| format!("stats op: {e}"))?;
        let json = std::str::from_utf8(&reply)
            .ok()
            .and_then(|s| parse_json(s).ok())
            .ok_or("stats reply is not JSON")?;
        let f = |k: &str| u64_field(&json, k).ok_or_else(|| format!("stats reply lacks {k}"));
        Ok(Stats {
            plan_hits: f("plan_cache_hits")?,
            plan_misses: f("plan_cache_misses")?,
            result_hits: f("result_cache_hits")?,
            result_misses: f("result_cache_misses")?,
            carried: f("result_cache_carried")?,
            invalidated: f("result_cache_invalidated")?,
            updates: f("updates")?,
            rejected: f("rejected")?,
            stalls: f("backpressure_stalls")?,
        })
    }

    fn plus(self, other: Stats) -> Stats {
        Stats {
            plan_hits: self.plan_hits + other.plan_hits,
            plan_misses: self.plan_misses + other.plan_misses,
            result_hits: self.result_hits + other.result_hits,
            result_misses: self.result_misses + other.result_misses,
            carried: self.carried + other.carried,
            invalidated: self.invalidated + other.invalidated,
            updates: self.updates + other.updates,
            rejected: self.rejected + other.rejected,
            stalls: self.stalls + other.stalls,
        }
    }

    fn since(self, earlier: Stats) -> Stats {
        Stats {
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
            result_hits: self.result_hits - earlier.result_hits,
            result_misses: self.result_misses - earlier.result_misses,
            carried: self.carried - earlier.carried,
            invalidated: self.invalidated - earlier.invalidated,
            updates: self.updates - earlier.updates,
            rejected: self.rejected - earlier.rejected,
            stalls: self.stalls - earlier.stalls,
        }
    }
}

/// CPU time of this process, seconds.
fn own_cpu() -> f64 {
    server::cpu_seconds(std::process::id()).unwrap_or(0.0)
}

/// Sends `ops` one at a time (see [`serial`]) for `length`, cut into
/// [`WINDOWS`] windows; returns the logs, the windows and the index of
/// the first op not sent.
fn serial_phase(
    conns: &mut [Conn],
    ops: &[Op],
    length: Duration,
    cycle: bool,
) -> (Vec<ConnLog>, Windows, usize) {
    let (mut windows, mut mark) = Windows::begin(Instant::now(), length);
    let mut logs: Vec<ConnLog> = (0..CONNS).map(|_| ConnLog::default()).collect();
    let mut next = 0;
    for k in 0..WINDOWS {
        next = serial(conns, &mut logs, ops, next, windows.end(k), cycle);
        windows.close(&mut mark);
        if logs.iter().any(|l| l.error.is_some()) {
            break;
        }
    }
    (logs, windows, next)
}

/// What one leg measured: one server, fresh from the corpus files,
/// through the warm-up and the measured phases.
struct Leg {
    /// Per-connection logs of the warm-up, serial, throughput and probe
    /// phases, in the order they ran.
    logs: [Vec<ConnLog>; 4],
    serial_wall: f64,
    serial_windows: Windows,
    throughput_windows: Windows,
    probe_windows: Windows,
    server_cpu_serial: f64,
    client_cpu_frac: f64,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// serial phase.
    steal_frac: f64,
    /// Stats before the serial phase, after it, and at the end.
    stats: [Stats; 3],
    rss_kb: u64,
    threads: u64,
    /// Bytes the store directory grew by.
    store_growth: u64,
}

/// Everything one attempt at the TCP run measured.
struct TcpRun {
    setups: Vec<f64>,
    banner: server::Banner,
    legs: Vec<Leg>,
}

fn tcp_run(
    bin: &Path,
    work: &Path,
    files: &[PathBuf],
    inputs: &Inputs,
    args: &Args,
) -> Result<TcpRun, String> {
    let spec = args.workload.spec();
    let store = |i: usize| spec.store.then(|| work.join(format!("store-{i}")));
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let log = work.join("server.log");
    let mut setups = Vec::new();
    for i in 0..SETUP_REPEATS {
        let s = Server::start(bin, files, store(i).as_deref(), &log)?;
        setups.push(s.setup.as_secs_f64());
        Server::kill(s);
    }
    let mut banner = None;
    let mut legs = Vec::new();
    for leg in 0..LEGS {
        let dir = store(SETUP_REPEATS + leg);
        let server = Server::start(bin, files, dir.as_deref(), &log)?;
        banner.get_or_insert_with(|| server.banner.clone());
        legs.push(run_leg(server, dir.as_deref(), inputs, args)?);
    }
    Ok(TcpRun {
        setups,
        banner: banner.expect("at least one leg"),
        legs,
    })
}

/// Runs the warm-up and the measured phases, each [`LEGS`] times
/// shorter than a whole run, on `server`, and shuts it down.
fn run_leg(
    server: Server,
    store_dir: Option<&Path>,
    inputs: &Inputs,
    args: &Args,
) -> Result<Leg, String> {
    let seconds = args.seconds / LEGS as f64;
    let pid = server.pid();
    let result = (|| -> Result<Leg, String> {
        let mut conns = (0..CONNS)
            .map(|c| Conn::connect(server.addr, c % 2 == 1).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let store_start = store_dir.map_or(0, server::dir_bytes);
        let far = Instant::now() + Duration::from_secs(3600);
        let (warm, ()) = on_all(
            &mut conns,
            |c, i| closed_loop(c, &inputs.warmup, i, 0, far, false),
            || (),
        );
        let s0 = Stats::fetch(&mut conns[0])?;

        let cycle = !args.workload.spec().writes;
        let probe_share = if inputs.probe.is_empty() {
            0.0
        } else {
            PROBE_SHARE
        };
        let cpu0 = server::cpu_seconds(pid).ok_or("read server cpu")?;
        let own0 = own_cpu();
        let start = Instant::now();
        let (serial_logs, serial_windows, next) = serial_phase(
            &mut conns,
            &inputs.stream,
            Duration::from_secs_f64(seconds * (SERIAL_SHARE - probe_share)),
            cycle,
        );
        let serial_wall = start.elapsed().as_secs_f64();
        let server_cpu_serial = server::cpu_seconds(pid).ok_or("read server cpu")? - cpu0;
        let client_cpu_frac = (own_cpu() - own0) / (serial_wall * CONNS as f64);
        let steal_frac = serial_windows.steal.iter().sum::<f64>()
            * serial_windows.len.as_secs_f64()
            / serial_wall;
        let s1 = Stats::fetch(&mut conns[0])?;
        // the peak so far: the serial phase sends one op at a time, so
        // the versions alive at once follow the stream, not the timing
        let rss_kb = server::status_field(pid, "VmHWM").ok_or("read VmHWM")?;

        // read-only streams start over; a write stream goes on from the
        // first op the serial phase did not send
        let from = if cycle { 0 } else { next };
        let end = start + Duration::from_secs_f64(seconds * (1.0 - probe_share));
        let (mut throughput_windows, mut mark) = Windows::begin(
            Instant::now(),
            end.saturating_duration_since(Instant::now()),
        );
        let (closed, ()) = on_all(
            &mut conns,
            |c, i| closed_loop(c, &inputs.stream, i, from, end, cycle),
            || {
                for k in 0..WINDOWS {
                    let now = Instant::now();
                    let at = throughput_windows.end(k);
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    throughput_windows.close(&mut mark);
                }
            },
        );
        let (probe, probe_windows, _) = serial_phase(
            &mut conns,
            &inputs.probe,
            Duration::from_secs_f64(seconds * probe_share),
            false,
        );
        let s2 = Stats::fetch(&mut conns[0])?;
        let threads = server::status_field(pid, "Threads").ok_or("read Threads")?;
        let store_end = store_dir.map_or(0, server::dir_bytes);
        conns[0]
            .roundtrip(br#"{"op":"shutdown"}"#)
            .map_err(|e| format!("shutdown op: {e}"))?;
        Ok(Leg {
            logs: [warm, serial_logs, closed, probe],
            serial_wall,
            serial_windows,
            throughput_windows,
            probe_windows,
            server_cpu_serial,
            client_cpu_frac,
            steal_frac,
            stats: [s0, s1, s2],
            rss_kb,
            threads,
            store_growth: store_end.saturating_sub(store_start),
        })
    })();
    if result.is_err() {
        server.kill();
    } else if !server.wait_exit(Duration::from_secs(60)) {
        eprintln!("twx-serve did not exit cleanly after shutdown");
    }
    result
}

/// Latencies of the queries (or updates) of `phase` that `keep` keeps,
/// in microseconds; failed ops rank beyond every percentile.
fn latencies_us(
    phase: &PhaseRun,
    verdicts: &[Vec<Verdict>],
    queries: bool,
    keep: impl Fn(&Sample) -> bool,
) -> Vec<f64> {
    let mut out = Vec::new();
    for (log, v) in phase.logs.iter().zip(verdicts) {
        for (s, verdict) in log.samples.iter().zip(v) {
            if phase.ops[s.op].is_query() != queries || !keep(s) {
                continue;
            }
            out.push(match (verdict, s.latency_ns) {
                (Verdict::Ok, Some(ns)) => ns as f64 / 1e3,
                _ => f64::INFINITY,
            });
        }
    }
    out
}

fn run(args: &Args) -> Result<(Metrics, bool, u64, u64), String> {
    let bin = server::build()?;
    let work = PathBuf::from(".servebench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(args, &bin, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".servebench");
    result
}

fn measure(args: &Args, bin: &Path, work: &Path) -> Result<(Metrics, bool, u64, u64), String> {
    let t = Instant::now();
    let counts = args.workload.counts(args.seconds / LEGS as f64);
    let inputs = generate(args.workload, args.seed, counts);
    let files: Vec<PathBuf> = inputs
        .corpus
        .iter()
        .enumerate()
        .map(|(i, xml)| {
            let path = work.join(format!("doc-{i:04}.xml"));
            std::fs::write(&path, xml)
                .map(|()| path)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    eprintln!("generated inputs in {:.2}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut attempt = 0;
    let mut tcp = loop {
        attempt += 1;
        let run = tcp_run(
            bin,
            &work.join(format!("attempt-{attempt}")),
            &files,
            &inputs,
            args,
        )?;
        let client_cpu = run
            .legs
            .iter()
            .map(|l| l.client_cpu_frac)
            .fold(0.0, f64::max);
        if client_cpu <= CLIENT_CPU_LIMIT {
            break run;
        }
        if attempt == ATTEMPTS {
            return Err(format!(
                "serial phase invalid in all {ATTEMPTS} attempts (last: client cpu {client_cpu:.3}, \
                 limit {CLIENT_CPU_LIMIT}): the client starved the server, so no result \
                 is reported"
            ));
        }
        eprintln!("serial phase invalid (client cpu {client_cpu:.3}); rerunning");
    };
    eprintln!("ran the server in {:.2}s", t.elapsed().as_secs_f64());

    // each leg is checked on its own: it starts from the corpus files, so
    // document versions start over
    let t = Instant::now();
    let lists = [
        &inputs.warmup,
        &inputs.stream,
        &inputs.stream,
        &inputs.probe,
    ];
    let mut runs: Vec<(Vec<PhaseRun>, Checked)> = Vec::new();
    for leg in &mut tcp.legs {
        let phases: Vec<PhaseRun> = lists
            .into_iter()
            .zip(std::mem::take(&mut leg.logs))
            .map(|(ops, logs)| PhaseRun { ops, logs })
            .collect();
        for (name, phase) in ["warm-up", "serial", "throughput", "probe"]
            .iter()
            .zip(&phases)
        {
            if let Some(e) = phase.logs.iter().find_map(|l| l.error.as_deref()) {
                eprintln!("{name} phase: connection error: {e}");
            }
        }
        let checked = check(&inputs, &phases, &tcp.banner.backend);
        for note in &checked.notes {
            eprintln!("oracle: {note}");
        }
        runs.push((phases, checked));
    }
    eprintln!("checked every reply in {:.2}s", t.elapsed().as_secs_f64());

    let writes = args.workload.spec().writes;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let (mut serial_q, mut updates) = (Vec::new(), Vec::new());
    let (mut serial_done, mut serial_queries) = (0, 0);
    let mut by_text: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let calm_of =
        |pick: fn(&Leg) -> &Windows| calm_windows(&tcp.legs.iter().map(pick).collect::<Vec<_>>());
    let serial_calm = calm_of(|l| &l.serial_windows);
    let throughput_calm = calm_of(|l| &l.throughput_windows);
    let probe_calm = calm_of(|l| &l.probe_windows);
    let (mut calm_ops, mut calm_time) = (0usize, 0.0);
    for (k, (leg, (phases, checked))) in tcp.legs.iter().zip(&runs).enumerate() {
        let (a, f) = checked.totals();
        attempted += a;
        failed += f;
        correct &= checked.correct();
        let v = &checked.verdicts;
        let sw = &leg.serial_windows;
        let in_calm = |s: &Sample| sw.keeps(&serial_calm[k], s.done);
        serial_q.extend(latencies_us(&phases[1], &v[1], true, in_calm));
        if writes {
            updates.extend(latencies_us(&phases[1], &v[1], false, in_calm));
        } else {
            let pw = &leg.probe_windows;
            updates.extend(latencies_us(&phases[3], &v[3], false, |s| {
                pw.keeps(&probe_calm[k], s.done)
            }));
        }
        for (log, verdicts) in phases[1].logs.iter().zip(&v[1]) {
            for (s, verdict) in log.samples.iter().zip(verdicts) {
                serial_done += usize::from(s.latency_ns.is_some());
                if let OpKind::Query(q) = &phases[1].ops[s.op].kind {
                    serial_queries += 1;
                    if let (Verdict::Ok, Some(ns)) = (verdict, s.latency_ns) {
                        by_text.entry(q).or_default().push(ns as f64 / 1e3);
                    }
                }
            }
        }
        // ops answered per throughput window; the figure is the rate over
        // the calm windows of every leg
        let tw = &leg.throughput_windows;
        let mut per_window = vec![0usize; tw.steal.len()];
        for (log, verdicts) in phases[2].logs.iter().zip(&v[2]) {
            for (s, verdict) in log.samples.iter().zip(verdicts) {
                if let (Verdict::Ok, Some(w)) = (verdict, tw.index(s.done)) {
                    per_window[w] += 1;
                }
            }
        }
        for (n, calm) in per_window.iter().zip(&throughput_calm[k]) {
            if *calm {
                calm_ops += n;
                calm_time += tw.len.as_secs_f64();
            }
        }
        let rates: Vec<String> = per_window
            .iter()
            .map(|&n| format!("{:.0}", n as f64 / tw.len.as_secs_f64()))
            .collect();
        let probe_sent: usize = phases[3].logs.iter().map(|l| l.samples.len()).sum();
        eprintln!(
            "leg {k}: serial {} ops over {:.2}s (client cpu {:.3}, host steal {:.3}); \
             throughput windows (ops/s) {}; probe {probe_sent} of {} updates",
            phases[1]
                .logs
                .iter()
                .map(|l| l.samples.len())
                .sum::<usize>(),
            leg.serial_wall,
            leg.client_cpu_frac,
            leg.steal_frac,
            rates.join(" "),
            inputs.probe.len()
        );
        eprintln!("  serial {}", sw.describe());
        eprintln!("  throughput {}", tw.describe());
        if !inputs.probe.is_empty() {
            eprintln!("  probe {}", leg.probe_windows.describe());
        }
    }

    let deciles = |v: &[f64]| -> String {
        (1..10)
            .map(|k| format!("{:.0}", percentile(v, k as f64 / 10.0).unwrap_or(0.0)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "calm serial query latency deciles (us): {}",
        deciles(&serial_q)
    );
    for (q, l) in &by_text {
        eprintln!("  {q:<32} n={:<5} deciles (us): {}", l.len(), deciles(l));
    }
    eprintln!("calm update latency deciles (us): {}", deciles(&updates));
    let starts: Vec<String> = tcp
        .setups
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    eprintln!("server starts (ms): {}", starts.join(" "));

    let legs = &tcp.legs;
    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", median(&tcp.setups), "s", tcp.setups.len());
        m.put("query_p50_us", median(&serial_q), "us", serial_q.len());
        m.put(
            "query_p99_us",
            percentile(&serial_q, 0.99).unwrap_or(0.0),
            "us",
            serial_q.len(),
        );
        let update_p95 = percentile(&updates, 0.95).unwrap_or(0.0);
        m.put(
            "update_mean_us",
            trimmed_mean(&updates, update_p95),
            "us",
            updates.len(),
        );
        m.put("update_p95_us", update_p95, "us", updates.len());
        m.put(
            "throughput_ops",
            calm_ops as f64 / calm_time.max(f64::MIN_POSITIVE),
            "ops/s",
            calm_ops,
        );
        let server_cpu: f64 = legs.iter().map(|l| l.server_cpu_serial).sum();
        m.put(
            "server_cpu_us_per_op",
            server_cpu * 1e6 / serial_done.max(1) as f64,
            "us",
            serial_done,
        );
        // the mean, not the median: a process's peak moves in steps of a
        // malloc arena, and a mean of several moves by a share of one
        let rss: f64 = legs.iter().map(|l| l.rss_kb as f64 / 1024.0).sum();
        m.put("server_rss_mb", rss / legs.len() as f64, "MiB", legs.len());
    } else {
        let total =
            |f: &dyn Fn(&Leg) -> Stats| legs.iter().map(f).fold(Stats::default(), |a, b| a.plus(b));
        let serial = total(&|l| l.stats[1].since(l.stats[0]));
        let run_all = total(&|l| l.stats[2].since(l.stats[0]));
        let ratio = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let traced = replay::run(args.workload, &inputs, &tcp.banner, work, &mut m)?;
        m.put(
            "netio.wire_p50_us",
            median(&serial_q) - traced.handle_p50_us,
            "us",
            serial_q.len(),
        );
        m.put(
            "netio.frame_decode_ns",
            traced.frame_decode_ns,
            "ns",
            traced.ops,
        );
        let threads = legs.iter().map(|l| l.threads).max().unwrap_or(0);
        m.put("netio.server_threads", threads as f64, "count", legs.len());
        m.put(
            "netio.backpressure_stalls",
            run_all.stalls as f64,
            "count",
            legs.len(),
        );
        m.put(
            "plan_cache.hit_ratio",
            ratio(serial.plan_hits, serial.plan_misses),
            "ratio",
            serial_queries,
        );
        m.put(
            "result_cache.hit_ratio",
            ratio(serial.result_hits, serial.result_misses),
            "ratio",
            serial_queries,
        );
        m.put(
            "result_cache.invalidated_per_update",
            per(run_all.invalidated, run_all.updates),
            "count",
            run_all.updates as usize,
        );
        m.put(
            "result_cache.carried_per_update",
            per(run_all.carried, run_all.updates),
            "count",
            run_all.updates as usize,
        );
        m.put(
            "eval.docs_per_query",
            per(serial.result_misses, serial_queries as u64),
            "count",
            serial_queries,
        );
        m.put(
            "service.rejected",
            run_all.rejected as f64,
            "count",
            legs.len(),
        );
        let growth: u64 = legs.iter().map(|l| l.store_growth).sum();
        m.put(
            "store.bytes_per_update",
            per(growth, run_all.updates),
            "B",
            run_all.updates as usize,
        );
        let client_cpu: Vec<f64> = legs.iter().map(|l| l.client_cpu_frac).collect();
        m.put("client.cpu_frac", median(&client_cpu), "ratio", legs.len());
        let steal: Vec<f64> = legs.iter().map(|l| l.steal_frac).collect();
        m.put(
            "client.host_steal_frac",
            median(&steal),
            "ratio",
            legs.len(),
        );
        m.put(
            "failed_frac",
            per(failed, attempted),
            "ratio",
            attempted as usize,
        );
    }
    Ok((m, correct, attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twx-servebench: {e}");
            eprintln!(
                "usage: twx-servebench --workload hot-read|live-write --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, correct, attempted, failed)) => {
            eprintln!(
                "{} seed {}: correct={correct} attempted={attempted} failed={failed}\n{}",
                args.workload.name(),
                args.seed,
                metrics.table()
            );
            println!("{}", metrics.result_line(correct, attempted, failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("twx-servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
