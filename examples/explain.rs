//! EXPLAIN: profile the same query through all three evaluation
//! backends and compare their cost structures.
//!
//! ```sh
//! cargo run --release --example explain
//! cargo run --release --no-default-features --example explain  # no-op counters
//! ```

use treewalk::xtree::parse::parse_xml;
use treewalk::{Backend, Engine};

fn main() {
    let xml = "<lib><shelf><book/><zine/></shelf><shelf><book><errata/></book></shelf></lib>";
    let query = "down*[book]";

    println!(
        "instrumentation {} (rebuild with --no-default-features to disable)\n",
        if treewalk::obs::ENABLED {
            "enabled"
        } else {
            "disabled"
        }
    );

    // the document is immutable: every backend explains the same value
    let doc = parse_xml(xml).expect("well-formed example document");
    let root = doc.tree.root();
    for backend in [Backend::Product, Backend::Automaton, Backend::Logic] {
        let profile = Engine::with_backend(backend)
            .explain(&doc, query, root)
            .expect("well-formed example query");
        println!("{profile}");
    }

    // the same profile, machine-readable; a second explain through the
    // same engine serves the compiled plan from the cache
    let engine = Engine::new();
    engine.explain(&doc, query, root).expect("query");
    let profile = engine.explain(&doc, query, root).expect("query");
    println!("as JSON:\n{}", profile.to_json().render());
    let stats = engine.cache_stats();
    println!(
        "plan cache after two explains: {} hit(s), {} miss(es)",
        stats.hits, stats.misses
    );

    // a plan-cache miss also prunes provably-unsatisfiable downward
    // filters (decided by type-automaton emptiness under a step budget),
    // visible as the simplify_unsat_pruned and prune_steps counters in
    // the profile
    let contradiction = "down*[book and !book]";
    let profile = engine.explain(&doc, contradiction, root).expect("query");
    println!(
        "\n{contradiction}: {} answer(s); nonzero counters: {:?}",
        profile.result_count,
        profile.active_counters(),
    );
}
