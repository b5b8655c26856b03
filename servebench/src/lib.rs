//! The serving benchmark's library: seeded workload generation, the TCP
//! load generator, the answer oracle and the traced in-process replay.
//! `src/main.rs` ties them into one run; see its docs for the phases.

pub mod client;
pub mod oracle;
pub mod replay;
pub mod server;
pub mod stats;
pub mod workload;
