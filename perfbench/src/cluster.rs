//! One live cluster: a `FileStore` in a scratch directory, a 4-node
//! middleware over `TcpLan` loopback with the perfect directory and
//! master-preserving replacement, and (for HTTP workloads) the front tier
//! with round-robin dispatch. The decorators sit at every seam.

use crate::decor::{TracedBackend, TracedLan, TracedStore};
use crate::span::Recorder;
use crate::workload::{Spec, NODES};
use ccm_core::ReplacementPolicy;
use ccm_front::{CcmBackend, FrontBackend, FrontTier, RoundRobin};
use ccm_net::TcpLan;
use ccm_rt::{BlockStore, FileStore, Middleware, RtConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A running cluster and the handles the benchmark reads it through.
pub struct Cluster {
    /// The span recorder every decorator reports to.
    pub rec: Arc<Recorder>,
    /// The real store, undecorated (for the write-back durability check).
    pub store: Arc<FileStore>,
    /// The peer transport, undecorated (for `net_stats`).
    pub lan: Arc<TcpLan>,
    /// The transport decorator (for its call counts).
    pub traced_lan: Arc<TracedLan>,
    /// The middleware.
    pub mw: Arc<Middleware>,
    /// The front tier, for HTTP workloads.
    pub front: Option<FrontTier>,
}

impl Cluster {
    /// Build the store under `dir` from `init` and start the cluster.
    pub fn start(
        spec: &Spec,
        dir: &Path,
        init: &dyn BlockStore,
        rec: Arc<Recorder>,
    ) -> std::io::Result<Cluster> {
        let catalog = spec.catalog();
        let store = Arc::new(FileStore::create(dir, &catalog, init)?);
        let lan = Arc::new(TcpLan::loopback(NODES)?);
        let traced_lan = Arc::new(TracedLan::new(lan.clone(), rec.clone()));
        let traced_store = Arc::new(TracedStore::new(store.clone(), rec.clone()));
        let cfg = RtConfig {
            nodes: NODES,
            capacity_blocks: spec.capacity_blocks,
            policy: ReplacementPolicy::MasterPreserving,
            fetch_timeout: Duration::from_secs(2),
            disk: spec.disk(),
            write: spec.write,
            ..RtConfig::default()
        };
        let mw = Arc::new(Middleware::start_on(
            cfg,
            catalog,
            traced_store,
            traced_lan.clone(),
        ));
        let front = spec.http.then(|| {
            let backend: Arc<dyn FrontBackend> = Arc::new(TracedBackend::new(
                Arc::new(CcmBackend::new(mw.clone())),
                rec.clone(),
            ));
            FrontTier::start(
                backend,
                Arc::new(RoundRobin::new(NODES)),
                mw.registry().clone(),
            )
        });
        Ok(Cluster {
            rec,
            store,
            lan,
            traced_lan,
            mw,
            front,
        })
    }

    /// Requests the front tier has dispatched, summed over nodes.
    pub fn dispatched(&self) -> u64 {
        self.front
            .as_ref()
            .map_or(0, |f| f.dispatch_counts().iter().sum())
    }

    /// Stop everything. Every client connection must be closed first.
    pub fn shutdown(self) {
        if let Some(front) = self.front {
            front.shutdown();
        }
        match Arc::try_unwrap(self.mw) {
            Ok(mw) => mw.shutdown(),
            Err(_) => panic!("middleware still shared at shutdown"),
        }
    }
}
