//! The SafeWeb benchmark: the MDT portal's whole Figure-4 deployment in
//! one process, driven only through its public entry points — pages over
//! HTTP, cases over STOMP — and read back from the DMZ replica and the
//! deployment's metrics registry. See `README.md` for the workloads and
//! metrics.

#![forbid(unsafe_code)]

pub mod deploy;
pub mod http;
pub mod ingest;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod rng;
pub mod spans;
pub mod stats;
