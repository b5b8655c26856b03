//! # twx-corpus — sharded corpus store + concurrent query service
//!
//! The serving layer over the `treewalk` engine: many documents, one
//! catalog, one plan per query, many threads.
//!
//! * [`Corpus`] / [`CorpusBuilder`] ([`store`]) — documents ingested into
//!   `N` shards sharing one append-only [`Catalog`](twx_xtree::Catalog),
//!   placed round-robin or size-balanced.
//! * [`QueryService`] ([`service`]) — a fixed worker pool over a bounded
//!   MPMC queue ([`queue`]): each query compiles once and fans out into
//!   one work item per shard; admission control rejects with a typed
//!   [`ServiceError::Overloaded`] when the queue is full; per-request
//!   deadlines produce partial, flagged answers; shutdown drains.
//! * [`CorpusAnswer`] — per-document answers plus per-shard latency
//!   accounting and the merged observability counters of every worker
//!   that touched the request.
//!
//! ```
//! use std::sync::Arc;
//! use twx_corpus::{Corpus, QueryService, ServiceConfig};
//! use twx_xtree::Catalog;
//! use treewalk::{Backend, Engine};
//!
//! let catalog = Arc::new(Catalog::new());
//! let mut b = Corpus::builder(Arc::clone(&catalog), 2);
//! b.add_xml("<a><b/><c><b/></c></a>").unwrap();
//! b.add_sexp("(a (b) (b))").unwrap();
//! let corpus = Arc::new(b.build());
//!
//! let service = QueryService::new(
//!     corpus,
//!     Engine::with_backend(Backend::Product),
//!     ServiceConfig { workers: 2, ..ServiceConfig::default() },
//! );
//! let answer = service.query("down*[b]").unwrap();
//! assert_eq!(answer.total_matches, 4); // two `b` descendants per document
//! service.shutdown();
//! ```
//!
//! The `twx-serve` binary in this crate exposes a service over TCP with
//! a newline-delimited JSON protocol; see the repository README.

pub mod proto;
pub mod queue;
pub mod service;
pub mod slowlog;
pub mod store;

pub use queue::{BoundedQueue, PushError};
pub use service::{
    CorpusAnswer, QueryService, ServiceConfig, ServiceError, ServiceStats, ShardTiming, Ticket,
    WorkerHold,
};
pub use slowlog::{SlowLog, SlowLogEntry};
pub use store::{
    Corpus, CorpusBuilder, CorpusSnapshot, DocEntry, DocId, PersistReceipt, Placement, Shard,
    ShardState, Snapshotter, UpdateError, UpdateReceipt,
};
pub use twx_store::{RecoveryReport, StoreConfig, StoreError, StoreFault};
