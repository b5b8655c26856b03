//! The answer oracle: checks every reply after the timed window.
//!
//! Updates are replayed in-process on mirrors of the corpus, and each
//! document's match count is recomputed at the `version` the reply
//! reports. The recomputation runs on a backend other than the server's
//! (the VM when the server evaluates with the product construction, the
//! product construction otherwise), compiled straight from the parsed
//! and syntactically simplified query, so the check is independent of
//! the engine's unsat-prune pass, plan cache and result cache as well
//! as of the server's evaluator.

use crate::client::ConnLog;
use crate::workload::{catalog, parse_doc, Inputs, Op, OpKind};
use std::collections::{BTreeMap, HashMap};
use treewalk::regxpath::eval::Compiled;
use treewalk::regxpath::parser::parse_rpath_resolved;
use treewalk::regxpath::simplify::simplify_rpath;
use treewalk::vm;
use twx_obs::json::{parse as parse_json, Json};
use twx_xtree::edit::apply_edit;
use twx_xtree::{NodeSet, Tree};

/// How one op ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Correct reply.
    Ok,
    /// No reply in time.
    TimedOut,
    /// `overloaded` refusal.
    Overloaded,
    /// Any other error reply, or a partial (deadline-cut) answer.
    Error,
    /// A reply that disagrees with the oracle.
    Wrong,
}

/// One phase's ops with what every connection saw.
pub struct PhaseRun<'a> {
    /// The phase's op list.
    pub ops: &'a [Op],
    /// Per-connection logs (samples index into `ops`).
    pub logs: Vec<ConnLog>,
}

/// A check still to be made: reported match count of one document.
#[derive(Clone)]
struct DocCheck {
    phase: usize,
    conn: usize,
    sample: usize,
    text: usize,
    matches: u64,
}

/// The oracle's findings.
pub struct Checked {
    /// Verdicts, indexed `[phase][conn][sample]` like the logs.
    pub verdicts: Vec<Vec<Vec<Verdict>>>,
    /// Human-readable notes on the first few failures.
    pub notes: Vec<String>,
}

impl Checked {
    /// Ops attempted and ops that failed, over all phases.
    pub fn totals(&self) -> (u64, u64) {
        let all = self.verdicts.iter().flatten().flatten();
        let attempted = all.clone().count() as u64;
        let failed = all.filter(|v| **v != Verdict::Ok).count() as u64;
        (attempted, failed)
    }

    /// Whether every reply that came back was right (capacity failures
    /// such as timeouts and `overloaded` do not make a run incorrect).
    pub fn correct(&self) -> bool {
        !self
            .verdicts
            .iter()
            .flatten()
            .flatten()
            .any(|v| matches!(v, Verdict::Wrong | Verdict::Error))
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// An unsigned integer field of a JSON object.
pub fn u64_field(obj: &Json, key: &str) -> Option<u64> {
    match field(obj, key)? {
        Json::Int(n) => Some(*n),
        _ => None,
    }
}

fn bool_field(obj: &Json, key: &str) -> Option<bool> {
    match field(obj, key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    match field(obj, key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// A query compiled for the oracle's backend.
enum Plan {
    Vm(vm::Program),
    Product(Compiled),
}

impl Plan {
    fn count(&self, t: &Tree) -> u64 {
        let ctx = NodeSet::singleton(t.len(), t.root());
        match self {
            Plan::Vm(p) => vm::eval_image(t, p, &ctx).count() as u64,
            Plan::Product(c) => c.image(t, &ctx).count() as u64,
        }
    }
}

/// Checks every reply of `phases` (in the order they ran) against
/// `inputs`; `server_backend` is the backend name the server reported.
pub fn check(inputs: &Inputs, phases: &[PhaseRun], server_backend: &str) -> Checked {
    let n_docs = inputs.corpus.len();
    let mut verdicts: Vec<Vec<Vec<Verdict>>> = phases
        .iter()
        .map(|p| {
            p.logs
                .iter()
                .map(|l| vec![Verdict::Ok; l.samples.len()])
                .collect()
        })
        .collect();
    let mut notes = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    let mut text_ids: HashMap<String, usize> = HashMap::new();
    // per document: the edits in commit order, and the checks by version
    let mut edits = vec![Vec::new(); n_docs];
    let mut checks: Vec<BTreeMap<u64, Vec<DocCheck>>> = vec![BTreeMap::new(); n_docs];
    for (pi, phase) in phases.iter().enumerate() {
        for (ci, log) in phase.logs.iter().enumerate() {
            for (si, sample) in log.samples.iter().enumerate() {
                let verdict = &mut verdicts[pi][ci][si];
                let op = &phase.ops[sample.op];
                if let OpKind::Update { doc, edit } = &op.kind {
                    edits[*doc as usize].push(*edit);
                }
                if sample.latency_ns.is_none() {
                    *verdict = Verdict::TimedOut;
                    continue;
                }
                let reply = std::str::from_utf8(&sample.reply)
                    .ok()
                    .and_then(|s| parse_json(s).ok());
                let Some(reply) = reply else {
                    *verdict = Verdict::Error;
                    continue;
                };
                if bool_field(&reply, "ok") != Some(true) {
                    *verdict = if str_field(&reply, "error") == Some("overloaded") {
                        Verdict::Overloaded
                    } else {
                        Verdict::Error
                    };
                    if notes.len() < 5 {
                        notes.push(format!(
                            "{:?}: {}",
                            op.kind,
                            String::from_utf8_lossy(&sample.reply)
                        ));
                    }
                    continue;
                }
                match &op.kind {
                    OpKind::Update { doc, .. } => {
                        let expect = edits[*doc as usize].len() as u64;
                        let version = u64_field(&reply, "version");
                        if u64_field(&reply, "doc") != Some(u64::from(*doc))
                            || version != Some(expect)
                        {
                            *verdict = Verdict::Wrong;
                            notes.push(format!(
                                "update of doc {doc}: version {version:?}, expected {expect}"
                            ));
                        }
                    }
                    OpKind::Query(text) => {
                        let text_id = *text_ids.entry(text.clone()).or_insert_with(|| {
                            texts.push(text.clone());
                            texts.len() - 1
                        });
                        let docs = match field(&reply, "docs") {
                            Some(Json::Arr(docs)) => docs.as_slice(),
                            _ => &[],
                        };
                        let mut seen = vec![false; n_docs];
                        let mut total = 0u64;
                        let mut well_formed =
                            bool_field(&reply, "timed_out") == Some(false) && docs.len() == n_docs;
                        for d in docs {
                            let (Some(id), Some(version), Some(matches)) = (
                                u64_field(d, "doc"),
                                u64_field(d, "version"),
                                u64_field(d, "matches"),
                            ) else {
                                well_formed = false;
                                continue;
                            };
                            let id = id as usize;
                            if id >= n_docs || seen[id] {
                                well_formed = false;
                                continue;
                            }
                            seen[id] = true;
                            total += matches;
                            checks[id].entry(version).or_default().push(DocCheck {
                                phase: pi,
                                conn: ci,
                                sample: si,
                                text: text_id,
                                matches,
                            });
                        }
                        if !well_formed || u64_field(&reply, "matches") != Some(total) {
                            *verdict = Verdict::Error;
                            if notes.len() < 5 {
                                notes.push(format!("malformed or partial answer to {text}"));
                            }
                        }
                    }
                }
            }
        }
    }

    let alphabet = catalog().snapshot();
    let plans: Vec<Plan> = texts
        .iter()
        .map(|q| {
            // the syntactic simplifier only: nested `W` on the raw AST
            // costs the oracle orders of magnitude more than the query
            let path = parse_rpath_resolved(q, &alphabet).expect("generated queries parse");
            let path = simplify_rpath(&path);
            if server_backend == "Vm" {
                Plan::Product(Compiled::new(&path))
            } else {
                Plan::Vm(vm::compile_path(&path))
            }
        })
        .collect();
    // documents are independent: split them over the client's threads
    let mismatches: Vec<(usize, usize, usize, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..crate::workload::CONNS)
            .map(|w| {
                let (edits, checks, plans) = (&edits, &checks, &plans);
                s.spawn(move || {
                    let cat = catalog();
                    let mut bad = Vec::new();
                    for doc in (w..n_docs).step_by(crate::workload::CONNS) {
                        let mut tree = parse_doc(&inputs.corpus[doc], &cat).tree;
                        let mut version = 0u64;
                        for (&at, list) in &checks[doc] {
                            while version < at {
                                let Some(edit) = edits[doc].get(version as usize) else {
                                    break;
                                };
                                tree = apply_edit(&tree, edit).expect("edits replay").0;
                                version += 1;
                            }
                            let mut counts: HashMap<usize, u64> = HashMap::new();
                            for c in list {
                                let want = if version == at {
                                    *counts
                                        .entry(c.text)
                                        .or_insert_with(|| plans[c.text].count(&tree))
                                } else {
                                    u64::MAX
                                };
                                if want != c.matches {
                                    bad.push((
                                        c.phase,
                                        c.conn,
                                        c.sample,
                                        format!(
                                            "doc {doc} v{at} query #{}: server {} oracle {}",
                                            c.text, c.matches, want
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    for (pi, ci, si, note) in mismatches {
        verdicts[pi][ci][si] = Verdict::Wrong;
        if notes.len() < 10 {
            notes.push(note);
        }
    }
    Checked { verdicts, notes }
}
