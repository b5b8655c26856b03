//! Determinism self-check: the same seed gives a byte-identical corpus
//! and op stream, and replaying them gives identical structural counts
//! (cache hits and misses, updates, invalidations, per-reply versions
//! and match counts).

use twx_servebench::replay::structural_replay;
use twx_servebench::workload::{generate, Counts, Inputs, Workload};

/// `stream` stream ops and, for read-only workloads, a probe of 100.
fn counts(w: Workload, stream: usize) -> Counts {
    let probe = if w.spec().writes { 0 } else { 100 };
    Counts { stream, probe }
}

fn request_bytes(inputs: &Inputs) -> Vec<String> {
    inputs
        .lists()
        .iter()
        .flat_map(|phase| phase.iter().map(|op| op.request()))
        .collect()
}

#[test]
fn same_seed_gives_identical_inputs() {
    for w in Workload::ALL {
        let a = generate(w, 7, counts(w, 300));
        let b = generate(w, 7, counts(w, 300));
        assert_eq!(a.corpus, b.corpus, "{}: corpus files differ", w.name());
        assert_eq!(
            request_bytes(&a),
            request_bytes(&b),
            "{}: op streams differ",
            w.name()
        );
        assert_eq!(a, b, "{}: inputs differ", w.name());
        let other = generate(w, 8, counts(w, 300));
        assert_ne!(
            a.corpus,
            other.corpus,
            "{}: the seed does not reach the corpus",
            w.name()
        );
        assert_ne!(
            a.stream,
            other.stream,
            "{}: the seed does not reach the ops",
            w.name()
        );
    }
}

#[test]
fn same_seed_gives_identical_structural_counts() {
    for w in Workload::ALL {
        let inputs = generate(w, 11, counts(w, 40));
        let first = structural_replay(&inputs).expect("replay runs");
        let second = structural_replay(&inputs).expect("replay runs");
        assert_eq!(first.len(), inputs.warmup.len() + inputs.stream.len() + 1);
        assert_eq!(first, second, "{}: structural counts differ", w.name());
        assert!(
            first.iter().all(|r| !r.contains(r#""ok":false"#)),
            "{}: a replayed op failed",
            w.name()
        );
    }
}

#[test]
fn workload_mixes_match_their_specs() {
    for w in Workload::ALL {
        let inputs = generate(w, 3, counts(w, 49 * 10));
        let updates = inputs.stream.iter().filter(|op| !op.is_query()).count();
        if w.spec().writes {
            assert_eq!(
                updates * 49,
                inputs.stream.len() * 8,
                "{}: eight updates in every 49 ops",
                w.name()
            );
        } else {
            assert_eq!(updates, 0, "{}: read phases are read-only", w.name());
            assert!(!inputs.probe.is_empty());
        }
        for op in inputs.lists().iter().flat_map(|p| p.iter()) {
            if let twx_servebench::workload::OpKind::Update { doc, .. } = op.kind {
                assert_eq!(
                    op.conn,
                    doc as usize % 2,
                    "updates of a document share a connection"
                );
            }
        }
    }
}

#[test]
fn live_write_queries_follow_one_update_and_sweeps_all() {
    use std::collections::HashMap;
    use twx_servebench::workload::{OpKind, SWEEP};
    let inputs = generate(Workload::LiveWrite, 5, counts(Workload::LiveWrite, 49 * 12));
    let docs = inputs.corpus.len();
    let mut updated = Vec::new();
    let mut last_seen: HashMap<&str, usize> = HashMap::new();
    let mut changed_counts: HashMap<usize, usize> = HashMap::new();
    for op in &inputs.stream {
        match &op.kind {
            OpKind::Update { doc, .. } => updated.push(*doc),
            OpKind::Query(text) => {
                let before = last_seen.insert(text, updated.len()).unwrap_or(0);
                let mut changed = updated[before..].to_vec();
                changed.sort_unstable();
                changed.dedup();
                if text == SWEEP {
                    assert_eq!(changed.len(), docs, "a sweep finds every document changed");
                } else {
                    *changed_counts.entry(changed.len()).or_default() += 1;
                }
            }
        }
    }
    // per op round: four pool queries re-run eval on one document, the
    // repeat hits; a sweep closes every round of documents
    let rounds = updated.len();
    assert_eq!(rounds, 12 * docs);
    assert_eq!(
        changed_counts,
        HashMap::from([(0, rounds), (1, 4 * rounds)])
    );
    assert_eq!(
        inputs
            .stream
            .iter()
            .filter(|op| op.kind == OpKind::Query(SWEEP.into()))
            .count(),
        12
    );
}
