//! # ccm-front — the content-aware HTTP front tier
//!
//! The paper's cluster is a *server*: clients talk HTTP to a front door,
//! and the interesting question is what happens to the bytes behind it.
//! This crate is that front door, structured as a fixed pipeline
//! (endpoint → middleware → service → backend; see [`server`]) with two
//! deliberate seams:
//!
//! * **the dispatch seam** ([`dispatch::Dispatch`]) — who serves a
//!   request: the arrival node itself (per-node web servers, the paper's
//!   §7 arrangement), round-robin DNS, consistent-hash by URL, the L2S
//!   content-aware policy (running the *same* [`ccm_l2s::L2sRouter`] core
//!   as the simulator), or LARD-style load-aware;
//! * **the backend seam** ([`backend::FrontBackend`]) — what serves it:
//!   the cooperative caching middleware (block-granular, peer fetch,
//!   channel or TCP transport) or a live L2S baseline (whole-file LRU
//!   with de-replication, no cooperation).
//!
//! Crossing the two seams reproduces the paper's CCM-vs-L2S comparison
//! over real sockets: same traces, same front door, different caching
//! architecture underneath. HTTP semantics live in [`range`]
//! (`Range`/`If-Range` mapped onto block reads — a range request against
//! the CCM backend touches only the blocks covering the range, while L2S
//! must fault the whole file) and in the [`http`] parsing module; the
//! [`client`] module is the matching blocking client, headers included.
//!
//! Everything the tier does is visible as the `ccm_front_*` metric family
//! on `GET /metrics`: per-policy dispatch counters, handoff counters,
//! request-latency histograms, and the per-node inflight gauges that
//! double as the load-aware policy's input signal. `GET /debug/trace`
//! serves the CCM backend's block-path trace ring.

#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod dispatch;
pub mod http;
pub mod range;
pub mod server;

pub use backend::{CcmBackend, FrontBackend, HitStats, L2sBackend};
pub use client::FrontClient;
pub use dispatch::{
    ConsistentHash, ContentAware, Dispatch, LoadAware, Local, PolicyKind, RoundRobin,
};
pub use range::{etag, evaluate, RangeOutcome};
pub use server::{FrontConfig, FrontTier};
