//! Compilation-as-a-service for the SPT pipeline.
//!
//! A cost-driven compile is expensive (profiling runs, per-loop partition
//! searches, simulation) and perfectly memoizable — every product is a pure
//! function of (source, configuration, inputs, machine model). This crate
//! exploits that with a long-running daemon, `sptd`, that keeps the hot
//! artifacts resident instead of re-deriving them per process:
//!
//! * [`proto`] — the length-framed Unix-socket protocol (requests: ping /
//!   compile / compile-batch / sim / stats / shutdown);
//! * [`sim`] — the one simulation path ([`sim_with_cache`]): a memo probe
//!   in the artifact store, a simulation on a miss, a store;
//! * [`service`] — [`CompileService`]: one artifact store
//!   (`spt_core::store`, memory over an optional `.spt-cache/` disk tier),
//!   single-flight compile deduplication, and global counters;
//! * [`server`] — the accept/reader/worker thread machinery behind `sptd`;
//! * [`client`] — the blocking [`Client`] the CLI (`sptc --daemon`) and
//!   `loadgen` use.
//!
//! The load-bearing property is *byte identity*: a response served from any
//! tier — memory, disk, or a concurrent request's single-flight result — is
//! byte-identical to what a cold single-process `sptc` run prints, pinned
//! by `crates/spt-serve/tests/daemon_equivalence.rs`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod proto;
pub mod server;
pub mod service;
pub mod sim;

pub use client::{Client, ClientError};
pub use proto::{CompileReq, CompileResp, OkBody, ReqBody, Request, RespBody, SimReq, SimResp};
pub use server::{serve, ServerHandle};
pub use service::{CompileService, ServiceConfig};
pub use sim::{sim_with_cache, SimTraceStats};
