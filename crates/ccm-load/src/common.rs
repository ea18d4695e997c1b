//! What every driver in this crate shares: the FNV-1a payload digest, the
//! cluster start-up (bare, or behind a front tier when the spec asks for a
//! live `/metrics` scrape), and that scrape.

use std::net::SocketAddr;
use std::sync::Arc;

use ccm_front::{CcmBackend, FrontTier, Local};
use ccm_rt::{BlockStore, Catalog, Middleware, RtConfig, Transport};

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold `bytes` into an FNV-1a `digest`.
pub(crate) fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

/// Start a middleware on the in-process channel LAN, or on `transport`.
pub(crate) fn start_middleware(
    cfg: RtConfig,
    catalog: Catalog,
    store: Arc<dyn BlockStore>,
    transport: Option<Arc<dyn Transport>>,
) -> Middleware {
    match transport {
        None => Middleware::start(cfg, catalog, store),
        Some(t) => Middleware::start_on(cfg, catalog, store, t),
    }
}

/// The cluster a replay driver reads through directly — plus, when the
/// spec asks for a live `/metrics` scrape, per-node HTTP endpoints over it
/// (a front tier with [`Local`] dispatch, reporting into the cluster's
/// own registry).
pub(crate) struct Cluster {
    mw: Arc<Middleware>,
    front: Option<FrontTier>,
}

impl Cluster {
    pub(crate) fn start(
        cfg: RtConfig,
        catalog: Catalog,
        store: Arc<dyn BlockStore>,
        transport: Option<Arc<dyn Transport>>,
        serve_metrics: bool,
    ) -> Cluster {
        let mw = Arc::new(start_middleware(cfg, catalog, store, transport));
        let front = serve_metrics.then(|| {
            FrontTier::start(
                Arc::new(CcmBackend::new(mw.clone())),
                Arc::new(Local),
                mw.registry().clone(),
            )
        });
        Cluster { mw, front }
    }

    pub(crate) fn mw(&self) -> &Middleware {
        &self.mw
    }

    /// Where to scrape `/metrics`, when endpoints are up.
    pub(crate) fn scrape_addr(&self) -> Option<SocketAddr> {
        self.front.as_ref().map(|f| f.addrs()[0])
    }

    pub(crate) fn shutdown(self) {
        if let Some(front) = self.front {
            front.shutdown();
        }
        match Arc::try_unwrap(self.mw) {
            Ok(mw) => mw.shutdown(),
            Err(_) => { /* a handle outlived us; Drop will clean up */ }
        }
    }
}

/// `GET /metrics` from `addr` and check that every one of `families` is on
/// the page.
pub(crate) fn scrape_ok(addr: SocketAddr, families: &[&str]) -> bool {
    match ccm_front::client::get(addr, "/metrics") {
        Ok(r) => {
            let body = String::from_utf8_lossy(&r.body);
            r.status == 200 && families.iter().all(|f| body.contains(f))
        }
        Err(_) => false,
    }
}
