//! The traced replay: the warm-up and the first `REPLAY_OPS` stream
//! ops, run sequentially in-process, with each layer's public entry
//! point timed on its own.
//!
//! Four tracks see the same op stream, each on a corpus of its own
//! built from the same files, so each track's caches go through the
//! same states the server's did:
//!
//! * **proto**: `ProtoHandler::handle` on the request payload, next to
//!   the calls it makes first (`twx_obs::json::parse`, the validating
//!   `parse_rpath_resolved`) and the frame codec the wire tier runs.
//!   It runs twice, with span recording on and off; the wall-time
//!   difference is `trace.overhead_frac`.
//! * **service**: `QueryService::query` / `QueryService::update` (on a
//!   `--store` corpus for durable workloads), whose answers carry the
//!   shards' queue waits and eval times.
//! * **stages**: `parse_rpath_resolved`, `simplify_rpath` and
//!   `prune_unsat_rpath`, the stages `Engine::prepare_in` runs first.
//! * **engine**: `Engine::prepare_in` (as the cache finds it, then once
//!   more hot) and `Prepared::eval_cached` per document against a result
//!   cache that mirrors the service's.
//!
//! A layer's self time is its call minus the calls nested under it:
//! `proto` = handle − JSON parse − validating parse − service query;
//! `service` = query − prepare − eval critical path; `plan_cache` =
//! prepare − parse − simplify − prune. The medians of the self times
//! should sum to the median of `handle`; the residual is reported as
//! `trace.unattributed_frac`, and `trace.reconciled` is 1 when it lies
//! within `RECONCILE_TOLERANCE` and 0 when the attribution is off.

use crate::server::SHARDS;
use crate::stats::{median, percentile, Metrics};
use crate::workload::{catalog, Inputs, Op, OpKind, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use treewalk::{prune_unsat_rpath, Backend, Engine, ResultCache};
use twx_corpus::proto::{ProtoHandler, MAX_REQUEST_BYTES};
use twx_corpus::{Corpus, DocId, QueryService, ServiceConfig};
use twx_netio::frame::{encode_frame, DecodeStep, FrameDecoder};
use twx_netio::{Handler, NetStats};
use twx_obs::json::Json;
use twx_regxpath::parser::parse_rpath_resolved;
use twx_regxpath::simplify::simplify_rpath;

/// Stream ops replayed after the warm-up.
const REPLAY_OPS: usize = 200;

/// Stated tolerance of the reconciliation: the self-time medians should
/// sum to the `handle` median within this share of it.
const RECONCILE_TOLERANCE: f64 = 0.25;

/// Maps the server's reported backend name back to the engine's.
fn backend(name: &str) -> Result<Backend, String> {
    Ok(match name {
        "Product" => Backend::Product,
        "Automaton" => Backend::Automaton,
        "Logic" => Backend::Logic,
        "Vm" => Backend::Vm,
        other => return Err(format!("unknown server backend {other}")),
    })
}

/// The server's defaults, mirrored in-process.
#[derive(Clone, Copy)]
struct Setup {
    backend: Backend,
    workers: usize,
    eval_threads: usize,
}

impl Setup {
    fn engine(self) -> Engine {
        Engine::with_backend(self.backend).with_parallelism(self.eval_threads)
    }

    fn service(self, corpus: Arc<Corpus>) -> QueryService {
        QueryService::new(
            corpus,
            self.engine(),
            ServiceConfig {
                workers: self.workers,
                ..ServiceConfig::default()
            },
        )
    }
}

fn build_corpus(inputs: &Inputs, store: Option<&Path>) -> Result<Corpus, String> {
    let mut b = Corpus::builder(Arc::new(catalog()), SHARDS);
    for xml in &inputs.corpus {
        b.add_xml(xml).map_err(|e| e.to_string())?;
    }
    if let Some(dir) = store {
        b = b.with_store(dir);
    }
    b.try_build().map_err(|e| format!("create store: {e}"))
}

/// Span recording: one `(op, layer, ns)` entry per timed call, or
/// nothing when off (the calls run either way).
struct Spans {
    on: bool,
    op: usize,
    spans: Vec<(usize, &'static str, u64)>,
}

impl Spans {
    fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.spans.push((self.op, layer, ns));
        r
    }

    /// Per-op durations of `layer`, in µs, indexed by op (missing ops
    /// are `None`).
    fn by_op(&self, layer: &str, n: usize) -> Vec<Option<f64>> {
        let mut out = vec![None; n];
        for &(op, l, ns) in &self.spans {
            if l == layer {
                *out[op].get_or_insert(0.0) += ns as f64 / 1e3;
            }
        }
        out
    }

    fn all(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.1 == layer)
            .map(|s| s.2 as f64 / 1e3)
            .collect()
    }
}

/// The proto track: returns its spans and wall time.
fn proto_track(
    inputs: &Inputs,
    ops: &[&Op],
    setup: Setup,
    on: bool,
) -> Result<(Spans, f64, Vec<f64>), String> {
    let corpus = Arc::new(build_corpus(inputs, None)?);
    let alphabet = corpus.catalog().snapshot();
    let handler = ProtoHandler::new(setup.service(corpus), Arc::new(NetStats::default()), 10_000);
    let mut spans = Spans {
        on,
        op: 0,
        spans: Vec::new(),
    };
    let mut reply_bytes = Vec::new();
    let mut decoder = FrameDecoder::new(MAX_REQUEST_BYTES);
    let began = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        spans.op = i;
        let payload = op.request().into_bytes();
        let framed = encode_frame(&payload);
        let decoded = spans.time("netio.frame_decode", || {
            decoder.extend(&framed);
            decoder.next_step()
        });
        if decoded != DecodeStep::Frame(payload.clone()) {
            return Err(format!("frame codec returned {decoded:?}"));
        }
        let text = std::str::from_utf8(&payload).expect("requests are UTF-8");
        spans
            .time("proto.json_parse", || twx_obs::json::parse(text))
            .map_err(|e| format!("request JSON: {e}"))?;
        if let OpKind::Query(q) = &op.kind {
            spans
                .time("proto.validate", || parse_rpath_resolved(q, &alphabet))
                .map_err(|e| format!("validate {q}: {e}"))?;
        }
        let reply = spans.time("proto.handle", || handler.handle(&payload));
        if op.is_query() {
            reply_bytes.push(reply.payload.len() as f64);
        }
    }
    let wall = began.elapsed().as_secs_f64();
    handler.finish();
    Ok((spans, wall, reply_bytes))
}

/// What the service and engine tracks measured.
#[derive(Default)]
struct Layers {
    changed: usize,
    prunes: usize,
    cold: Vec<f64>,
    hot: Vec<f64>,
    eval_ns_per_node: Vec<f64>,
    eval_doc_us: Vec<f64>,
    hit_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    /// Per-op eval critical path of the service's answer (µs): the
    /// shards' eval times spread over the workers, never less than the
    /// longest shard.
    eval_path: Vec<Option<f64>>,
    updates: Vec<f64>,
    persist_ms: f64,
    build_ms: f64,
    snapshots: u64,
}

/// The service track: `QueryService::query` and `QueryService::update`
/// on a corpus built (and, for durable workloads, stored) like the
/// server's, with the server's background snapshotter.
fn service_track(
    inputs: &Inputs,
    ops: &[&Op],
    setup: Setup,
    store: Option<&Path>,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    let corpus = Arc::new(build_corpus(inputs, store)?);
    layers.build_ms = t.elapsed().as_secs_f64() * 1e3;
    let snapshotter = corpus
        .store()
        .is_some()
        .then(|| corpus.spawn_snapshotter(1 << 20, Duration::from_millis(200)));
    let service = setup.service(Arc::clone(&corpus));
    layers.eval_path = vec![None; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        spans.op = i;
        match &op.kind {
            OpKind::Query(q) => {
                let answer = spans
                    .time("service.query", || service.query(q))
                    .map_err(|e| format!("service query {q}: {e}"))?;
                let evals: Vec<f64> = answer
                    .shards
                    .iter()
                    .map(|s| s.eval.as_secs_f64() * 1e6)
                    .collect();
                let longest = evals.iter().copied().fold(0.0, f64::max);
                layers.eval_path[i] =
                    Some(longest.max(evals.iter().sum::<f64>() / setup.workers as f64));
                let wait = answer
                    .shards
                    .iter()
                    .map(|s| s.queue_wait)
                    .max()
                    .unwrap_or_default();
                layers.queue_wait_us.push(wait.as_secs_f64() * 1e6);
            }
            OpKind::Update { doc, edit } => {
                let t = Instant::now();
                service
                    .update(DocId(*doc), edit)
                    .map_err(|e| format!("update doc {doc}: {e}"))?;
                layers.updates.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    layers.snapshots = snapshotter.as_ref().map_or(0, |s| s.persists());
    drop(snapshotter);
    if corpus.store().is_some() {
        let t = Instant::now();
        corpus.persist().map_err(|e| format!("persist: {e}"))?;
        layers.persist_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    service.shutdown();
    Ok(())
}

/// The stage track: the stages of `Engine::prepare_in` one by one. It
/// is a pass of its own because a stage repeated right after the same
/// stage runs faster than it does inside `prepare_in`.
fn stage_track(ops: &[&Op], spans: &mut Spans, layers: &mut Layers) -> Result<(), String> {
    let alphabet = catalog().snapshot();
    for (i, op) in ops.iter().enumerate() {
        spans.op = i;
        let OpKind::Query(q) = &op.kind else {
            continue;
        };
        let raw = spans
            .time("parse", || parse_rpath_resolved(q, &alphabet))
            .map_err(|e| format!("parse {q}: {e}"))?;
        let simplified = spans.time("simplify", || simplify_rpath(&raw));
        let pruned = spans.time("prune", || prune_unsat_rpath(&simplified));
        layers.prunes += 1;
        layers.changed += usize::from(pruned != simplified);
    }
    Ok(())
}

/// The engine track: `Engine::prepare_in` as the plan cache finds it,
/// then once more hot, and `Prepared::eval_cached` per document against
/// a result cache that sees the same inserts and invalidations as the
/// service's.
fn engine_track(
    inputs: &Inputs,
    ops: &[&Op],
    setup: Setup,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let corpus = build_corpus(inputs, None)?;
    let engine = setup.engine();
    let results = ResultCache::default();
    let catalog = corpus.catalog();
    for (i, op) in ops.iter().enumerate() {
        spans.op = i;
        let q = match &op.kind {
            OpKind::Query(q) => q,
            OpKind::Update { doc, edit } => {
                let receipt = corpus
                    .update(DocId(*doc), edit)
                    .map_err(|e| format!("update doc {doc}: {e}"))?;
                results.invalidate(u64::from(*doc), receipt.affected, receipt.version);
                continue;
            }
        };
        let misses = engine.cache_stats().misses;
        let prepared = spans
            .time("plan_cache.prepare", || engine.prepare_in(catalog, q))
            .map_err(|e| format!("prepare {q}: {e}"))?;
        let took = spans.spans.last().map_or(0.0, |s| s.2 as f64 / 1e3);
        if engine.cache_stats().misses > misses {
            layers.cold.push(took);
        }
        let t = Instant::now();
        let hot = engine.prepare_in(catalog, q);
        layers.hot.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(hot.map_err(|e| e.to_string())?);
        for entry in corpus.iter() {
            let hits = results.stats().hits;
            let root = entry.doc.tree.root();
            let t = Instant::now();
            let answer = prepared.eval_cached(
                &results,
                u64::from(entry.id.0),
                entry.version,
                &entry.doc,
                root,
            );
            let ns = t.elapsed().as_nanos() as f64;
            std::hint::black_box(answer);
            if results.stats().hits > hits {
                layers.hit_us.push(ns / 1e3);
            } else {
                layers
                    .eval_ns_per_node
                    .push(ns / entry.doc.tree.len() as f64);
                layers.eval_doc_us.push(ns / 1e3);
            }
        }
    }
    Ok(())
}

/// Per-layer results of the replay.
pub struct Traced {
    /// Ops replayed.
    pub ops: usize,
    /// Median `ProtoHandler::handle` time of queries (µs).
    pub handle_p50_us: f64,
    /// Median frame decode time per payload (ns).
    pub frame_decode_ns: f64,
}

fn some(v: &[Option<f64>]) -> Vec<f64> {
    v.iter().flatten().copied().collect()
}

/// Runs the replay for `workload` against a server that reported
/// `banner`, recording the per-layer metrics into `m`; `work` holds the
/// durable track's store.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    banner: &crate::server::Banner,
    work: &Path,
    m: &mut Metrics,
) -> Result<Traced, String> {
    let setup = Setup {
        backend: backend(&banner.backend)?,
        workers: banner.workers,
        eval_threads: banner.eval_threads,
    };
    let ops: Vec<&Op> = inputs
        .warmup
        .iter()
        .chain(inputs.stream.iter().take(REPLAY_OPS))
        .collect();
    let n = ops.len();
    // a warm-up pass, then span recording off, on, on, off, so first-run
    // effects and drift fall on both sides of `trace.overhead_frac`
    proto_track(inputs, &ops, setup, false)?;
    let (_, off_a, _) = proto_track(inputs, &ops, setup, false)?;
    let (proto, on_a, reply_bytes) = proto_track(inputs, &ops, setup, true)?;
    let (_, on_b, _) = proto_track(inputs, &ops, setup, true)?;
    let (_, off_b, _) = proto_track(inputs, &ops, setup, false)?;
    let overhead = (on_a + on_b) / (off_a + off_b) - 1.0;
    let mut spans = Spans {
        on: true,
        op: 0,
        spans: Vec::new(),
    };
    let mut layers = Layers::default();
    let store = workload.spec().store.then(|| work.join("replay-store"));
    service_track(
        inputs,
        &ops,
        setup,
        store.as_deref(),
        &mut spans,
        &mut layers,
    )?;
    stage_track(&ops, &mut spans, &mut layers)?;
    engine_track(inputs, &ops, setup, &mut spans, &mut layers)?;

    let handle = proto.by_op("proto.handle", n);
    let json = proto.by_op("proto.json_parse", n);
    let validate = proto.by_op("proto.validate", n);
    let svc = spans.by_op("service.query", n);
    let prep = spans.by_op("plan_cache.prepare", n);
    let parse = spans.by_op("parse", n);
    let simplify = spans.by_op("simplify", n);
    let prune = spans.by_op("prune", n);
    // per-op self times over the queries (the ops every track timed)
    let mut selfs: [Vec<f64>; 9] = Default::default();
    let mut handle_q = Vec::new();
    for i in 0..n {
        let (Some(h), Some(j), Some(v), Some(s), Some(p), Some(pa), Some(si), Some(pr), Some(e)) = (
            handle[i],
            json[i],
            validate[i],
            svc[i],
            prep[i],
            parse[i],
            simplify[i],
            prune[i],
            layers.eval_path[i],
        ) else {
            continue;
        };
        handle_q.push(h);
        let row = [
            h - j - v - s,
            j,
            v,
            pa,
            si,
            pr,
            p - pa - si - pr,
            s - p - e,
            e,
        ];
        for (k, x) in row.into_iter().enumerate() {
            selfs[k].push(x);
        }
    }
    let handle_p50 = median(&handle_q);
    let self_sum: f64 = selfs.iter().map(|v| median(v)).sum();
    let unattributed = if handle_p50 > 0.0 {
        (handle_p50 - self_sum) / handle_p50
    } else {
        0.0
    };
    let reconciled = unattributed.abs() <= RECONCILE_TOLERANCE;
    if !reconciled {
        eprintln!(
            "trace: layer self times sum to {self_sum:.1}us against a handle median of {handle_p50:.1}us \
             ({:+.1}% unattributed, tolerance {:.0}%)",
            unattributed * 100.0,
            RECONCILE_TOLERANCE * 100.0
        );
    }
    let frame = proto.all("netio.frame_decode");
    let q = handle_q.len();
    let p = |v: &[f64], x: f64| percentile(v, x).unwrap_or(0.0);
    m.put("proto.handle_p50_us", handle_p50, "us", q);
    m.put("proto.handle_p99_us", p(&handle_q, 0.99), "us", q);
    m.put("proto.self_us", median(&selfs[0]), "us", q);
    m.put("proto.json_parse_us", median(&some(&json)), "us", n);
    m.put(
        "proto.reply_bytes",
        median(&reply_bytes),
        "B",
        reply_bytes.len(),
    );
    m.put("parse.us", median(&some(&parse)), "us", q);
    let simplify = some(&simplify);
    m.put("simplify.us_p50", median(&simplify), "us", q);
    m.put("simplify.us_p99", p(&simplify, 0.99), "us", q);
    let prune = some(&prune);
    m.put("prune.us_p50", median(&prune), "us", q);
    m.put("prune.us_p99", p(&prune, 0.99), "us", q);
    m.put(
        "prune.changed_frac",
        layers.changed as f64 / layers.prunes.max(1) as f64,
        "ratio",
        layers.prunes,
    );
    m.put(
        "plan_cache.prepare_hot_us",
        median(&layers.hot),
        "us",
        layers.hot.len(),
    );
    m.put(
        "plan_cache.prepare_cold_p50_us",
        median(&layers.cold),
        "us",
        layers.cold.len(),
    );
    m.put(
        "plan_cache.prepare_cold_p99_us",
        p(&layers.cold, 0.99),
        "us",
        layers.cold.len(),
    );
    m.put("plan_cache.self_us", median(&selfs[6]), "us", q);
    m.put(
        "eval.ns_per_node",
        median(&layers.eval_ns_per_node),
        "ns",
        layers.eval_ns_per_node.len(),
    );
    m.put(
        "eval.doc_p99_us",
        p(&layers.eval_doc_us, 0.99),
        "us",
        layers.eval_doc_us.len(),
    );
    m.put(
        "result_cache.hit_us",
        median(&layers.hit_us),
        "us",
        layers.hit_us.len(),
    );
    let svc = some(&svc);
    m.put("service.query_p50_us", median(&svc), "us", svc.len());
    m.put("service.query_p99_us", p(&svc, 0.99), "us", svc.len());
    m.put("service.self_us", median(&selfs[7]), "us", q);
    m.put(
        "service.queue_wait_p99_us",
        p(&layers.queue_wait_us, 0.99),
        "us",
        layers.queue_wait_us.len(),
    );
    m.put(
        "store.update_p50_us",
        median(&layers.updates),
        "us",
        layers.updates.len(),
    );
    m.put(
        "store.update_p95_us",
        p(&layers.updates, 0.95),
        "us",
        layers.updates.len(),
    );
    m.put(
        "store.persist_ms",
        layers.persist_ms,
        "ms",
        usize::from(store.is_some()),
    );
    m.put("store.snapshots", layers.snapshots as f64, "count", 1);
    m.put("xtree.corpus_build_ms", layers.build_ms, "ms", 1);
    m.put("trace.overhead_frac", overhead, "ratio", n);
    m.put("trace.unattributed_frac", unattributed, "ratio", q);
    m.put(
        "trace.reconciled",
        f64::from(u8::from(reconciled)),
        "flag",
        1,
    );
    Ok(Traced {
        ops: n,
        handle_p50_us: handle_p50,
        frame_decode_ns: median(&frame) * 1e3,
    })
}

/// Reply fields that carry timings or per-process ids.
const UNSTABLE_FIELDS: [&str; 3] = ["latency_us", "trace_id", "shards"];

/// Replays the warm-up and stream ops of `inputs` sequentially through
/// an in-process `ProtoHandler` and returns each reply with its timing
/// fields removed (per-document versions and match counts of queries;
/// versions, sizes and commit sequence of updates), followed by the final
/// `stats` counters of both caches, updates and invalidations. Nothing
/// in it depends on timing, so the same inputs must give the same value.
pub fn structural_replay(inputs: &Inputs) -> Result<Vec<String>, String> {
    let setup = Setup {
        backend: Backend::default(),
        workers: 2,
        eval_threads: 1,
    };
    let corpus = Arc::new(build_corpus(inputs, None)?);
    let handler = ProtoHandler::new(setup.service(corpus), Arc::new(NetStats::default()), 16);
    let strip = |payload: &[u8]| -> Result<String, String> {
        let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        match twx_obs::json::parse(text)? {
            Json::Obj(fields) => Ok(Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| !UNSTABLE_FIELDS.contains(&k.as_str()))
                    .collect(),
            )
            .render()),
            other => Err(format!("reply is not an object: {}", other.render())),
        }
    };
    let mut out = Vec::new();
    for op in inputs.warmup.iter().chain(&inputs.stream) {
        out.push(strip(&handler.handle(op.request().as_bytes()).payload)?);
    }
    let stats = handler.handle(br#"{"op":"stats"}"#).payload;
    let stats = std::str::from_utf8(&stats).map_err(|e| e.to_string())?;
    let stats = twx_obs::json::parse(stats)?;
    let counts: Vec<String> = [
        "plan_cache_hits",
        "plan_cache_misses",
        "result_cache_hits",
        "result_cache_misses",
        "result_cache_carried",
        "result_cache_invalidated",
        "updates",
    ]
    .iter()
    .map(|k| format!("{k}={:?}", crate::oracle::u64_field(&stats, k)))
    .collect();
    out.push(counts.join(" "));
    handler.finish();
    Ok(out)
}
