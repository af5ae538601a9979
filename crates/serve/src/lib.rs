//! # pml-serve
//!
//! The selection path as a concurrent service.
//!
//! An MPI library normally links [`pml_core::Tuner`] in-process, but a
//! shared deployment (one tuned model per cluster, many launching jobs)
//! wants a daemon: load the tuning tables and model artifacts once, answer
//! selection queries from every process on the node. This crate is that
//! daemon, kept deliberately air-gap-safe — the wire format is
//! newline-delimited JSON over a Unix domain socket, no network stack, no
//! external dependencies.
//!
//! * [`protocol`] — the versioned `pml-serve/v1` frame format: requests
//!   read by one walk of the vendored `serde_json::Reader` with typed error
//!   replies (a malformed frame is answered, never dropped), the request
//!   encoder clients use, and reply rendering;
//! * [`batch`] — the request batcher: concurrent `predict` lookups funnel
//!   through a bounded queue into one batched forest inference
//!   ([`pml_core::PretrainedModel::predict_batch`]) per group of whatever
//!   is already queued (up to the batch cap) — the worker never waits for
//!   more;
//! * [`client`] — the client end of a connection (connect, send a frame,
//!   read a reply line) the CLI and the tests share;
//! * [`watch`] — the `watch` tick and `stats` reply: built from the
//!   daemon's state, read off a socket, rendered for a terminal;
//! * [`server`] — artifact loading, the accept loop (a thread per
//!   connection) and clean shutdown on SIGTERM or the `shutdown` op;
//! * [`conn`] — one connection: framing, dispatch, the `predict` settle,
//!   the reply flush and the `watch` wait;
//! * [`reqtrace`] — request-level stage attribution: every request gets a
//!   monotonic id and (when tracing is on) timestamps through
//!   parse → select / queue-wait → batch-assembly → predict → serialize →
//!   reply into windowed histograms, with slow requests captured into a
//!   bounded ring;
//! * [`slo`] — latency targets read from a pinned `slo.json` and
//!   burn-rate arithmetic for the `watch` op;
//! * [`quality`] — the 1-in-K online quality monitor re-scoring served
//!   selections through the analytic referee, off the reply path;
//! * [`signal`] — the SIGTERM/SIGINT → atomic-flag bridge (no `libc`
//!   dependency; one `extern "C"` declaration).

pub mod batch;
pub mod client;
pub mod conn;
pub mod protocol;
pub mod quality;
pub mod reqtrace;
pub mod server;
pub mod signal;
pub mod slo;
pub mod watch;

pub use batch::{BatchConfig, BatchTiming, Batcher};
pub use client::Client;
pub use protocol::{
    collective_wire_name, encode_request, parse_collective, parse_request, ErrorKind, Op,
    ProtoError, Request, PROTOCOL_VERSION, WATCH_DEFAULT_INTERVAL_MS,
};
pub use quality::{QualityCell, QualityMonitor, QualitySample};
pub use reqtrace::{RequestTrace, SlowRequest, SlowRing, SLOW_RING_CAP, STAGE_NAMES};
pub use server::{load_artifacts, LoadedArtifacts, ObsConfig, ServeError, Server};
pub use signal::install_termination_flag;
pub use slo::{targets_from_json, SloTargets, DEFAULT_ERROR_BUDGET};
