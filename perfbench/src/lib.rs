//! A benchmark of the cooperative caching cluster, driven from outside
//! through the crates' public APIs: HTTP front tier → middleware → TCP
//! peers → disk service over a real file store.

pub mod cluster;
pub mod decor;
pub mod host;
pub mod openloop;
pub mod pinned;
pub mod span;
pub mod stats;
pub mod verify;
pub mod workload;
