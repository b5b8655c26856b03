//! The workloads and their seeded inputs: the corpus files
//! `twx-serve` loads and the op stream the client sends.
//!
//! Everything here is a pure function of the seed and the op counts, so
//! the same arguments give a byte-identical corpus and op stream.

use twx_obs::json::Json;
use twx_xtree::edit::{apply_edit, random_edit, Edit};
use twx_xtree::generate::{random_document_in, Shape};
use twx_xtree::parse::parse_xml_catalog;
use twx_xtree::rng::{Rng, SplitMix64};
use twx_xtree::serialize::to_xml;
use twx_xtree::{Catalog, Document, Label};

/// The corpus label space, in catalog order (`twx-serve` interns the
/// same four names first, so label ids agree).
pub const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// Client connections (= threads) driving the server: the host's
/// `nproc` where this benchmark was defined. Connection 0 speaks NDJSON,
/// connection 1 binary frames.
pub const CONNS: usize = 2;

/// The harness's serve pool: the distinct query texts of E9–E12 and
/// E14, with labels `p0/p1/p2` read as `a/b/c`.
pub const SERVE_POOL: [&str; 10] = [
    "down*[a]",
    "(down/right | up)*[a]",
    "down*[W(<down*[b]>)]",
    "(down | right)*[b]",
    "down*[<down[c]> or <down[d]>]",
    "down/down/down/down/down[b]",
    "down*/right*/down*[c]",
    "(down[a] | right)*[b or c]",
    "down*[<down*[c]>]",
    "(up | down)*[b]",
];

/// E14's pool, chosen there for eval cost; none carries a boolean filter.
pub const EVAL_POOL: [&str; 4] = [
    "down*[a]",
    "(up | down)*[b]",
    "down*/right*/down*[c]",
    "(down/right | up)*[a]",
];

/// A serve-pool text `live-write` asks once per round of updates over
/// all documents, so it re-runs eval on the whole corpus.
pub const SWEEP: &str = "(down | right)*[b]";

/// Stream ops generated per second of a leg on `live-write`, whose
/// updates are drawn against the mirrors before the run: about 4.5x the
/// rate at which today's program works through the stream (serial phase
/// and throughput phase together), so a faster program still finds ops
/// for the whole leg. Read-only workloads deal their stream cyclically
/// and never run out.
pub const WRITE_STREAM_OPS_PER_S: f64 = 1500.0;

/// Stream queries generated for read-only workloads, which the client
/// deals cyclically: a whole number of decks per connection.
const READ_STREAM_DECKS: usize = 8;

/// Share of each leg given to the write probe of the read-only
/// workloads, which supplies their `update_*` figures.
pub const PROBE_SHARE: f64 = 0.1;

/// Probe updates generated per second of the probe: about 3x the rate
/// at which today's program commits them one at a time (about 60 us
/// each), so a faster program still finds updates for the whole probe.
const PROBE_UPDATES_PER_S: f64 = 50_000.0;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-only draws from [`SERVE_POOL`]; every warm answer is a plan-
    /// and result-cache hit, so the per-request path dominates.
    HotRead,
    /// Queries from [`EVAL_POOL`] and [`SWEEP`] mixed with durable
    /// updates over large documents; most queries re-run eval on the one
    /// document updated since their text last ran, so eval and the store
    /// dominate.
    LiveWrite,
}

/// Sizes and mix of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Documents in the corpus.
    pub docs: usize,
    /// Nodes per generated document.
    pub nodes: usize,
    /// Serve the corpus from a durable store (`--store`).
    pub store: bool,
    /// Eight ops in 49 are updates (otherwise read-only, with a write
    /// probe after the read phases, and the stream dealt cyclically).
    pub writes: bool,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::HotRead, Workload::LiveWrite];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::LiveWrite => "live-write",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's corpus size and op mix.
    pub fn spec(self) -> Spec {
        match self {
            // 64 docs x 10 texts = 640 answers, inside the 1024-entry
            // result cache; 10 plans inside the 256-plan cache
            Workload::HotRead => Spec {
                docs: 64,
                nodes: 400,
                store: false,
                writes: false,
            },
            Workload::LiveWrite => Spec {
                docs: 8,
                nodes: 50_000,
                store: true,
                writes: true,
            },
        }
    }

    /// How many ops to generate for `seconds` of measurement (one leg).
    pub fn counts(self, seconds: f64) -> Counts {
        if self.spec().writes {
            Counts {
                stream: (WRITE_STREAM_OPS_PER_S * seconds).ceil() as usize,
                probe: 0,
            }
        } else {
            Counts {
                stream: READ_STREAM_DECKS * SERVE_POOL.len() * CONNS,
                probe: (PROBE_UPDATES_PER_S * PROBE_SHARE * seconds).ceil() as usize,
            }
        }
    }
}

/// How many ops [`generate`] draws.
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    /// Ops in the stream.
    pub stream: usize,
    /// Updates in the write probe (read-only workloads).
    pub probe: usize,
}

/// What one op asks of the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A query over the whole corpus.
    Query(String),
    /// One typed edit to one document.
    Update {
        /// Document id (position in the corpus file list).
        doc: u32,
        /// The edit, valid against the document's current version.
        edit: Edit,
    },
}

/// One request of the op stream, pinned to a client connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// The connection that sends it. Every update of a document goes over
    /// the same connection, so each document's versions follow the seed.
    pub conn: usize,
    /// The request.
    pub kind: OpKind,
}

impl Op {
    fn query(index: usize, text: String) -> Op {
        Op {
            conn: index % CONNS,
            kind: OpKind::Query(text),
        }
    }

    fn update(doc: u32, edit: Edit) -> Op {
        Op {
            conn: doc as usize % CONNS,
            kind: OpKind::Update { doc, edit },
        }
    }

    /// Whether this op is a query.
    pub fn is_query(&self) -> bool {
        matches!(self.kind, OpKind::Query(_))
    }

    /// The request payload (one JSON object, unframed).
    pub fn request(&self) -> String {
        match &self.kind {
            OpKind::Query(q) => Json::obj()
                .field("op", "query")
                .field("query", q.as_str())
                .render(),
            OpKind::Update { doc, edit } => {
                let name = |l: Label| LABELS[l.index()];
                let edit = match *edit {
                    Edit::Relabel { node, label } => Json::obj()
                        .field("op", "relabel")
                        .field("node", node.0)
                        .field("label", name(label)),
                    Edit::InsertChild {
                        parent,
                        position,
                        label,
                    } => Json::obj()
                        .field("op", "insert-child")
                        .field("parent", parent.0)
                        .field("position", position)
                        .field("label", name(label)),
                    Edit::RemoveSubtree { node } => Json::obj()
                        .field("op", "remove-subtree")
                        .field("node", node.0),
                };
                Json::obj()
                    .field("op", "update")
                    .field("doc", *doc)
                    .field("edit", edit)
                    .render()
            }
        }
    }
}

/// A workload's generated inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// One XML file per document; the document id is the position.
    pub corpus: Vec<String>,
    /// Unmeasured ops that warm connections and caches.
    pub warmup: Vec<Op>,
    /// The measured ops: the serial phase sends them in order from the
    /// start, the throughput phase goes on from where it stopped
    /// (read-only workloads deal them cyclically instead).
    pub stream: Vec<Op>,
    /// The write probe of the read-only workloads: updates sent one at a
    /// time after the throughput phase.
    pub probe: Vec<Op>,
}

impl Inputs {
    /// The op lists, in the order they are first used.
    pub fn lists(&self) -> [&[Op]; 3] {
        [&self.warmup, &self.stream, &self.probe]
    }
}

/// The catalog both sides resolve labels against.
pub fn catalog() -> Catalog {
    Catalog::from_names(LABELS)
}

/// Parses a corpus file exactly as the server does, so node ids (and
/// therefore edits) agree with the server's copy.
pub fn parse_doc(xml: &str, catalog: &Catalog) -> Document {
    parse_xml_catalog(xml, catalog).expect("generated XML parses")
}

/// Deals the op stream: which pool text or which document's update each
/// op is. Edits are drawn afterwards, per document (see [`draw_edits`]).
struct Dealer {
    workload: Workload,
    rng: SplitMix64,
    docs: usize,
    /// The shuffled decks ops are dealt from: one per connection on
    /// `hot-read`, one shared deck (the first) on `live-write`.
    decks: [Vec<Slot>; CONNS],
    /// The documents still to update in the current round, shuffled.
    round: Vec<usize>,
    /// Rounds of ops dealt so far.
    rounds: usize,
}

/// One slot of a deck: a pool query or an update.
#[derive(Clone, Copy)]
enum Slot {
    Query(&'static str),
    Update,
}

/// An op before its edit is drawn.
#[derive(Clone, Copy)]
enum Draft {
    Query(&'static str),
    Update(usize),
}

/// Shuffles `deck` in place (Fisher-Yates).
fn shuffle<T>(rng: &mut SplitMix64, deck: &mut [T]) {
    for i in (1..deck.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        deck.swap(i, j);
    }
}

impl Dealer {
    /// The next document to update: every document once per round, in
    /// shuffled order.
    fn next_doc(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..self.docs).collect();
            shuffle(&mut self.rng, &mut self.round);
        }
        self.round.pop().expect("a refilled round is not empty")
    }

    /// Deals the slot of op `i`. Seeds change the order of ops, not
    /// their total cost:
    ///
    /// - `hot-read` deals from a per-connection shuffled deck holding
    ///   every pool text once, so each connection has the exact mix in
    ///   every deck-length window;
    /// - `live-write` deals rounds of one update, then every
    ///   [`EVAL_POOL`] text once in shuffled order, then one of them
    ///   again. Updates visit the documents in shuffled rounds, and the
    ///   last op round of each document round asks [`SWEEP`] right
    ///   after its update. Between two queries of a pool text exactly one
    ///   document changed, so four pool queries in five re-run eval on
    ///   one document (and take the other answers from the result
    ///   cache), the repeat is a pure result-cache hit, and the sweep
    ///   re-runs eval on every document. The pool texts' eval costs
    ///   differ, so they form four clusters of latency; with the hits
    ///   as a fifth, equal cluster the median falls inside one cluster
    ///   instead of on the edge between two, and the sweeps (about 2%
    ///   of queries, the slowest) set the p99.
    fn slot(&mut self, i: usize) -> Slot {
        let deck = match self.workload {
            Workload::HotRead => i % CONNS,
            Workload::LiveWrite => 0,
        };
        if self.decks[deck].is_empty() {
            let round: Vec<Slot> = match self.workload {
                Workload::HotRead => {
                    let mut texts = SERVE_POOL.to_vec();
                    shuffle(&mut self.rng, &mut texts);
                    texts.into_iter().map(Slot::Query).collect()
                }
                Workload::LiveWrite => {
                    let mut texts = EVAL_POOL.to_vec();
                    shuffle(&mut self.rng, &mut texts);
                    let again = texts[self.rng.gen_range(0..texts.len())];
                    texts.push(again);
                    if self.rounds % self.docs == self.docs - 1 {
                        // right after the update, so the queries it
                        // delays are this round's, not the next update
                        texts.insert(0, SWEEP);
                    }
                    std::iter::once(Slot::Update)
                        .chain(texts.into_iter().map(Slot::Query))
                        .collect()
                }
            };
            self.rounds += 1;
            // dealt from the back
            self.decks[deck] = round.into_iter().rev().collect();
        }
        self.decks[deck]
            .pop()
            .expect("a refilled deck is not empty")
    }

    fn phase(&mut self, n: usize) -> Vec<Draft> {
        (0..n)
            .map(|i| match self.slot(i) {
                Slot::Query(q) => Draft::Query(q),
                Slot::Update => Draft::Update(self.next_doc()),
            })
            .collect()
    }
}

/// Draws `per_doc[d]` edits for each document `d` in turn against a
/// mirror of it, each document from its own stream of `rngs`, so the
/// edits do not depend on how the documents are split over threads.
/// Each edit is valid against the version the previous ones produce.
fn draw_edits(corpus: &[String], per_doc: &[usize], rngs: Vec<SplitMix64>) -> Vec<Vec<Edit>> {
    let labels: Vec<Label> = (0..LABELS.len() as u32).map(Label).collect();
    let mut jobs: Vec<Vec<(usize, SplitMix64)>> = vec![Vec::new(); CONNS];
    for (doc, rng) in rngs.into_iter().enumerate() {
        jobs[doc % CONNS].push((doc, rng));
    }
    let mut edits = vec![Vec::new(); corpus.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let labels = &labels;
                s.spawn(move || {
                    let catalog = catalog();
                    job.into_iter()
                        .map(|(doc, mut rng)| {
                            let mut tree = parse_doc(&corpus[doc], &catalog).tree;
                            let drawn = (0..per_doc[doc])
                                .map(|_| {
                                    let edit = random_edit(&tree, labels, &mut rng);
                                    // random_edit reads only the shape of
                                    // the tree, which a relabel keeps
                                    if !matches!(edit, Edit::Relabel { .. }) {
                                        tree =
                                            apply_edit(&tree, &edit).expect("drawn edits apply").0;
                                    }
                                    edit
                                })
                                .collect::<Vec<_>>();
                            (doc, drawn)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (doc, drawn) in w.join().expect("edit drawing thread panicked") {
                edits[doc] = drawn;
            }
        }
    });
    edits
}

/// Generates a workload's corpus and ops from `seed`.
pub fn generate(workload: Workload, seed: u64, counts: Counts) -> Inputs {
    let spec = workload.spec();
    let catalog = catalog();
    let alphabet = catalog.snapshot();
    let mut master = SplitMix64::seed_from_u64(seed);
    let mut corpus_rng = master.split();
    let corpus: Vec<String> = (0..spec.docs)
        .map(|_| {
            let doc = random_document_in(Shape::Recursive, spec.nodes, &catalog, &mut corpus_rng);
            to_xml(&doc.tree, &alphabet)
        })
        .collect();
    let mut dealer = Dealer {
        workload,
        rng: master.split(),
        docs: spec.docs,
        decks: Default::default(),
        round: Vec::new(),
        rounds: 0,
    };
    let warmup = match workload {
        Workload::HotRead => SERVE_POOL.to_vec(),
        Workload::LiveWrite => [&EVAL_POOL[..], &[SWEEP]].concat(),
    };
    let warmup = warmup.into_iter().map(Draft::Query).collect();
    let stream = dealer.phase(counts.stream);
    let probe = (0..counts.probe)
        .map(|_| Draft::Update(dealer.rng.gen_range(0..spec.docs)))
        .collect();
    let drafts: [Vec<Draft>; 3] = [warmup, stream, probe];
    let mut per_doc = vec![0; spec.docs];
    for d in drafts.iter().flatten() {
        if let Draft::Update(doc) = d {
            per_doc[*doc] += 1;
        }
    }
    let rngs = (0..spec.docs).map(|_| master.split()).collect();
    let mut edits = draw_edits(&corpus, &per_doc, rngs)
        .into_iter()
        .map(Vec::into_iter)
        .collect::<Vec<_>>();
    let [warmup, stream, probe] = drafts.map(|phase| {
        phase
            .into_iter()
            .enumerate()
            .map(|(i, d)| match d {
                Draft::Query(q) => Op::query(i, q.to_string()),
                Draft::Update(doc) => {
                    let edit = edits[doc].next().expect("an edit per update");
                    Op::update(doc as u32, edit)
                }
            })
            .collect()
    });
    Inputs {
        corpus,
        warmup,
        stream,
        probe,
    }
}
