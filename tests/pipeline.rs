//! Integration tests for the staged compile pipeline: the mandatory
//! simplify stage, the shared plan cache, and the `Send + Sync`
//! prepare-once/serve-many contract of [`Engine`] and [`Prepared`].

use std::sync::Arc;
use treewalk::obs;
use treewalk::{Backend, Engine, EngineError, Prepared};
use twx_core::{rpath_to_formula, rpath_to_ntwa};
use twx_regxpath::eval::Compiled;
use twx_regxpath::generate::{random_rpath, RGenConfig};
use twx_regxpath::print::rpath_to_string;
use twx_regxpath::simplify_rpath;
use twx_xtree::generate::{enumerate_trees_up_to, random_document_in, Shape};
use twx_xtree::parse::{parse_xml, parse_xml_catalog};
use twx_xtree::rng::SplitMix64;
use twx_xtree::{Catalog, Document, NodeSet, Tree};

const ALL_BACKENDS: [Backend; 4] = [
    Backend::Product,
    Backend::Automaton,
    Backend::Logic,
    Backend::Vm,
];

/// Compile-time proof that the engine types cross threads: `Prepared`
/// values are served from many threads, engines are cloned into them.
#[test]
fn engine_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<Catalog>();
    assert_send_sync::<treewalk::CacheStats>();
}

fn eval_backend(t: &Tree, p: &twx_regxpath::RPath, backend: Backend, ctx: &NodeSet) -> NodeSet {
    match backend {
        Backend::Product => Compiled::new(p).image(t, ctx),
        Backend::Automaton => twx_twa::eval_image(t, &rpath_to_ntwa(p), ctx),
        Backend::Logic => twx_fotc::eval_binary(t, &rpath_to_formula(p, 0, 1, 2), 0, 1).image(ctx),
        Backend::Vm => twx_vm::eval_image(t, &twx_vm::compile_path(p), ctx),
    }
}

/// The simplify stage is semantics-preserving for every backend: a random
/// path and its simplification compile to plans with identical answers on
/// every tree of a bounded domain (seeded, deterministic).
#[test]
fn simplify_stage_preserves_semantics_on_all_backends() {
    let trees = enumerate_trees_up_to(4, 2);
    let mut rng = SplitMix64::seed_from_u64(2008);
    let cfg = RGenConfig::default();
    for _ in 0..12 {
        let p = random_rpath(&cfg, 3, &mut rng);
        let sp = simplify_rpath(&p);
        for t in &trees {
            let all = NodeSet::full(t.len());
            for backend in ALL_BACKENDS {
                assert_eq!(
                    eval_backend(t, &p, backend, &all),
                    eval_backend(t, &sp, backend, &all),
                    "{}: {p:?} vs simplified {sp:?}",
                    backend.name()
                );
            }
        }
    }
}

/// One `Prepared` value hammered from 8 threads returns identical answers
/// everywhere, and repeat prepares on those threads are all plan-cache
/// hits.
#[test]
fn one_prepared_serves_eight_threads() {
    let catalog = Catalog::new();
    let doc = parse_xml_catalog("<a><b><c/><d/></b><c><b><d/></b></c><d/></a>", &catalog).unwrap();
    let engine = Engine::new();
    let prepared = Arc::new(engine.prepare(&doc, "(down | right)*[b]").unwrap());
    let expected = prepared.eval(&doc, doc.tree.root());

    std::thread::scope(|s| {
        for _ in 0..8 {
            let p = Arc::clone(&prepared);
            let engine = engine.clone();
            let doc = &doc;
            let expected = &expected;
            s.spawn(move || {
                for _ in 0..16 {
                    assert_eq!(p.eval(doc, doc.tree.root()), *expected);
                }
                // the same query re-prepared on this thread is a cache hit
                let again = engine.prepare(doc, "(down | right)*[b]").unwrap();
                assert_eq!(again.eval(doc, doc.tree.root()), *expected);
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "one cold compile");
    assert_eq!(stats.hits, 8, "every thread re-prepare hit the cache");
    assert_eq!(stats.entries, 1);
}

/// `query_batch` fans one plan across catalog-shared documents and agrees
/// with sequential evaluation.
#[test]
fn query_batch_over_catalog_shared_documents() {
    let catalog = Catalog::from_names(["a", "b", "c"]);
    let mut rng = SplitMix64::seed_from_u64(77);
    let docs: Vec<Document> = (0..16)
        .map(|_| random_document_in(Shape::DocumentLike, 60, &catalog, &mut rng))
        .collect();
    let engine = Engine::new();
    let prepared = engine.prepare_in(&catalog, "down*[b]").unwrap();
    let jobs: Vec<(&Document, _)> = docs.iter().map(|d| (d, d.tree.root())).collect();
    let batch = engine.query_batch(&jobs, "down*[b]").unwrap();
    assert_eq!(batch.len(), docs.len());
    for (i, d) in docs.iter().enumerate() {
        assert_eq!(batch[i], prepared.eval(d, d.tree.root()), "doc {i}");
    }
}

/// Unknown labels surface as a typed error against immutable documents,
/// while `prepare_in` interns them into the shared catalog.
#[test]
fn unknown_labels_are_typed_errors_but_catalogs_intern() {
    let doc = parse_xml("<a><b/></a>").unwrap();
    let engine = Engine::new();
    match engine.prepare(&doc, "down[ghost]") {
        Err(EngineError::UnknownLabel { label }) => assert_eq!(label, "ghost"),
        other => panic!("expected UnknownLabel, got {other:?}"),
    }

    let catalog = Catalog::from_names(["a", "b"]);
    let doc2 = {
        let mut rng = SplitMix64::seed_from_u64(1);
        random_document_in(Shape::Wide, 20, &catalog, &mut rng)
    };
    let p = engine.prepare_in(&catalog, "down[ghost]").unwrap();
    assert!(catalog.lookup("ghost").is_some(), "prepare_in interns");
    // `ghost` labels no node, so the filter selects nothing
    assert_eq!(p.eval(&doc2, doc2.tree.root()).count(), 0);
}

/// The full simplify + unsat-prune stage is **idempotent** — feeding a
/// pipeline's output query back through the pipeline changes nothing —
/// and never grows the AST, across 500 random queries per backend.
#[test]
fn simplify_and_prune_are_idempotent_and_never_grow() {
    let catalog = Catalog::from_names(["p0", "p1"]);
    let mut rng = SplitMix64::seed_from_u64(500);
    let cfg = RGenConfig::default();
    for backend in ALL_BACKENDS {
        let engine = Engine::with_backend(backend);
        for i in 0..500 {
            let p = random_rpath(&cfg, 4, &mut rng);
            // the bare rewriting fixpoint is idempotent on its own…
            let s = simplify_rpath(&p);
            assert_eq!(simplify_rpath(&s), s, "simplify not a fixpoint: {p:?}");
            assert!(s.size() <= p.size(), "simplify grew {p:?} -> {s:?}");

            // …and so is the engine's full staged pipeline (simplify +
            // unsat-prune + re-simplify), observed through `path()`.
            let text = rpath_to_string(&p, &catalog.snapshot());
            let prepared = engine.prepare_in(&catalog, &text).unwrap();
            let once = prepared.path().clone();
            assert!(
                once.size() <= prepared.raw_size(),
                "{} query {i}: pipeline grew {} -> {} ({text})",
                backend.name(),
                prepared.raw_size(),
                once.size()
            );
            let again = engine
                .prepare_in(&catalog, &rpath_to_string(&once, &catalog.snapshot()))
                .unwrap();
            assert_eq!(
                *again.path(),
                once,
                "{} query {i}: pipeline not idempotent for {text}",
                backend.name()
            );
        }
    }
}

/// FIFO eviction under contention: 8 threads push 48 thread-disjoint
/// distinct queries through a capacity-8 cache. Keys never collide across
/// threads, so inserts == misses exactly, and the FIFO invariant
/// `evictions == inserts − capacity` must hold; the scoped join doubles
/// as the no-deadlock check.
#[test]
fn plan_cache_fifo_eviction_under_contention() {
    const CAPACITY: usize = 8;
    const THREADS: usize = 8;
    const PER_THREAD: usize = 6;
    let engine = Engine::with_cache_capacity(Backend::Product, CAPACITY);
    let catalog = Catalog::from_names(["a"]);

    std::thread::scope(|s| {
        for i in 0..THREADS {
            let engine = engine.clone();
            let catalog = &catalog;
            s.spawn(move || {
                for j in 0..PER_THREAD {
                    // a down-chain of thread-unique length: 48 distinct
                    // simplified ASTs, so every lookup is a cold miss
                    let len = i * PER_THREAD + j + 1;
                    let q = vec!["down"; len].join("/");
                    engine.prepare_in(catalog, &q).unwrap();
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.capacity, CAPACITY);
    assert_eq!(stats.entries, CAPACITY, "cache must sit at capacity");
    assert_eq!(stats.hits, 0, "disjoint keys cannot hit");
    assert_eq!(stats.misses, (THREADS * PER_THREAD) as u64);
    assert_eq!(
        stats.evictions,
        stats.misses - CAPACITY as u64,
        "FIFO invariant: evictions == inserts − capacity"
    );

    // determinism coda: one more distinct query misses and evicts, its
    // immediate re-prepare hits
    let q = vec!["down"; THREADS * PER_THREAD + 1].join("/");
    engine.prepare_in(&catalog, &q).unwrap();
    engine.prepare_in(&catalog, &q).unwrap();
    let after = engine.cache_stats();
    assert_eq!(after.hits, 1);
    assert_eq!(after.misses, stats.misses + 1);
    assert_eq!(after.evictions, stats.evictions + 1);
    assert_eq!(after.entries, CAPACITY);
}

/// The mandatory simplify stage is visible in EXPLAIN profiles: passes are
/// counted and shrinkage is reported for a query with redundancy.
#[test]
fn explain_shows_simplify_and_cache_counters() {
    if !obs::ENABLED {
        return;
    }
    let doc = parse_xml("<a><b/><b/></a>").unwrap();
    let engine = Engine::new();
    let profile = engine
        .explain(&doc, "(down | down)[b]", doc.tree.root())
        .unwrap();
    assert_eq!(profile.result_count, 2);
    assert!(profile.counters.get(obs::Counter::SimplifyPasses) > 0);
    assert!(profile.counters.get(obs::Counter::SimplifyShrunkNodes) > 0);
    assert_eq!(profile.counters.get(obs::Counter::PlanCacheMisses), 1);
    // `down|down` collapses to `down`: the cached plan is keyed on the
    // simplified AST, so the plainly-written query now hits
    let second = engine.explain(&doc, "down[b]", doc.tree.root()).unwrap();
    assert_eq!(second.counters.get(obs::Counter::PlanCacheHits), 1);
    assert_eq!(second.counters.get(obs::Counter::PlanCacheMisses), 0);
}

/// Unsat-prune runs on a plan-cache miss only: the second prepare of a
/// prunable query is a hit that prunes nothing, and it serves the same
/// pruned plan under the same fingerprint.
#[test]
fn plan_cache_hits_skip_unsat_prune() {
    let catalog = Catalog::from_names(["a", "b"]);
    let engine = Engine::new();
    let q = "down*[b and !b]";
    let before = obs::snapshot();
    let cold = engine.prepare_in(&catalog, q).unwrap();
    let cold_delta = obs::delta_since(&before);
    let before = obs::snapshot();
    let hot = engine.prepare_in(&catalog, q).unwrap();
    let hot_delta = obs::delta_since(&before);
    assert!(twx_regxpath::simplify::is_empty_path(cold.path()));
    assert_eq!(hot.path(), cold.path());
    assert_eq!(hot.fingerprint(), cold.fingerprint());
    if obs::ENABLED {
        assert_eq!(cold_delta.get(obs::Counter::PlanCacheMisses), 1);
        assert_eq!(cold_delta.get(obs::Counter::SimplifyUnsatPruned), 1);
        assert_eq!(hot_delta.get(obs::Counter::PlanCacheHits), 1);
        assert_eq!(hot_delta.get(obs::Counter::SimplifyUnsatPruned), 0);
        assert_eq!(hot_delta.get(obs::Counter::PruneSteps), 0);
    }
}

/// A query whose exact unsat check would explore an exponential type
/// automaton (minutes unbounded) prepares under the step budget, cold and
/// hot, and keeps its filters.
#[test]
fn exhausted_prune_budget_keeps_the_query() {
    let catalog = Catalog::from_names(["a", "b", "c", "d"]);
    let engine = Engine::new();
    let q = "down*[<down[<down[c]> or <down[d]>]> or <down[a]>]";
    let unpruned = simplify_rpath(&twx_regxpath::parser::parse_rpath_catalog(q, &catalog).unwrap());
    // two filters reach the automaton (the bare labels are shortcut), and
    // each check gives up at the budget
    let mut steps = Vec::new();
    for _ in 0..2 {
        let before = obs::snapshot();
        let prepared = engine.prepare_in(&catalog, q).unwrap();
        steps.push(obs::delta_since(&before).get(obs::Counter::PruneSteps));
        assert_eq!(*prepared.path(), unpruned);
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    if obs::ENABLED {
        let budget = treewalk::prune::MAX_CHECK_STEPS as u64;
        assert_eq!(
            steps,
            [2 * budget, 0],
            "cold: two exhausted checks; hot: none"
        );
    }
}
