//! Per-node web servers over the cooperative cache — the paper's §7
//! arrangement — as the front tier with `Local` dispatch: every request is
//! served by the node it arrived at, so everything cross-node happens
//! underneath, in the middleware. Each test runs with the peer traffic on
//! both LAN backends (in-process channels and real TCP sockets); the HTTP
//! layer must not notice the swap.

use ccm_core::{BlockId, FileId, NodeId, ReplacementPolicy};
use ccm_front::client::{get, FrontClient};
use ccm_front::PolicyKind;
use ccm_rt::store::read_file_direct;
use ccm_rt::{BlockStore, Catalog, MemStore, Middleware, RtConfig, SyntheticStore};
use ccm_testkit::{start_front, Backend, FrontBackendKind, FrontFixture};
use simcore::Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn start_on(
    lan: Backend,
    nodes: usize,
    cap: usize,
    catalog: &Catalog,
    store: Arc<dyn BlockStore>,
) -> FrontFixture {
    start_front(
        FrontBackendKind::Ccm(lan),
        PolicyKind::Local,
        RtConfig {
            nodes,
            capacity_blocks: cap,
            policy: ReplacementPolicy::MasterPreserving,
            ..RtConfig::default()
        },
        catalog.clone(),
        store,
    )
}

/// `files` files of `size` bytes over a synthetic store.
fn start(
    lan: Backend,
    nodes: usize,
    files: usize,
    size: u64,
    cap: usize,
) -> (FrontFixture, Catalog, Arc<SyntheticStore>) {
    let catalog = Catalog::new(vec![size; files]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 42));
    let fx = start_on(lan, nodes, cap, &catalog, store.clone());
    (fx, catalog, store)
}

fn mw(fx: &FrontFixture) -> &Middleware {
    fx.middleware.as_deref().expect("CCM backend")
}

/// Warm a file on node 0, read it through nodes 1 and 2: the bytes must
/// have come from node 0's memory as remote hits.
#[test]
fn cross_node_requests_cooperate() {
    for lan in Backend::all() {
        let (fx, catalog, store) = start(lan, 3, 2, 30_000, 64);
        let addrs = fx.front.addrs().to_vec();
        assert_eq!(get(addrs[0], "/file/0").unwrap().status, 200);
        for (n, &addr) in addrs.iter().enumerate().skip(1) {
            let r = get(addr, "/file/0").unwrap();
            assert_eq!(r.status, 200, "{} node {n}", lan.name());
            assert_eq!(
                r.body,
                read_file_direct(store.as_ref(), &catalog, FileId(0)),
                "{} node {n} corrupted",
                lan.name()
            );
        }
        assert!(
            mw(&fx).stats().remote_hits > 0,
            "{}: peer fetches should have happened",
            lan.name()
        );
        assert_eq!(fx.front.handoffs(), 0, "local dispatch never hands off");
        mw(&fx).check_invariants();
        fx.shutdown();
    }
}

fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request).unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn garbage_gets_400_and_post_gets_405() {
    for lan in Backend::all() {
        let (fx, _catalog, _store) = start(lan, 1, 2, 10_000, 32);
        let addr = fx.front.addrs()[0];

        let text = raw_exchange(addr, b"NOT HTTP AT ALL\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");
        let text = raw_exchange(addr, b"POST /file/0 HTTP/1.0\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 405"), "got: {text}");

        // The endpoint survived both: no worker panic took it down.
        assert_eq!(get(addr, "/file/0").unwrap().status, 200, "{}", lan.name());
        fx.shutdown();
    }
}

/// 8 keep-alive clients × 100 GETs spread over 4 endpoints: every body
/// exact, no failures, cluster invariants intact.
#[test]
fn concurrent_keep_alive_load_is_correct() {
    const FILES: u64 = 24;
    for lan in Backend::all() {
        let (fx, catalog, store) = start(lan, 4, FILES as usize, 16_000, 48);
        let (ok, failed) = std::thread::scope(|s| {
            let clients: Vec<_> = (0..8u64)
                .map(|t| {
                    let addr = fx.front.addrs()[t as usize % 4];
                    let (catalog, store) = (&catalog, &store);
                    s.spawn(move || {
                        let mut rng = Rng::new(t);
                        let mut conn = FrontClient::connect(addr).unwrap();
                        let (mut ok, mut failed) = (0u64, 0u64);
                        for _ in 0..100 {
                            let id = rng.next_below(FILES) as u32;
                            let want = read_file_direct(store.as_ref(), catalog, FileId(id));
                            match conn.get(&format!("/file/{id}")) {
                                Ok(r) if r.status == 200 && r.body == want => ok += 1,
                                _ => failed += 1,
                            }
                        }
                        (ok, failed)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .fold((0, 0), |(o, f), (ok, failed)| (o + ok, f + failed))
        });
        assert_eq!((ok, failed), (800, 0), "{}", lan.name());
        assert_eq!(fx.front.dispatch_counts().iter().sum::<u64>(), 800);
        mw(&fx).quiesce();
        mw(&fx).check_invariants();
        fx.shutdown();
    }
}

/// A write through the middleware API (the HTTP surface is read-only)
/// must invalidate the replica a peer acquired earlier, so both endpoints
/// serve the new bytes.
#[test]
fn middleware_writes_show_up_on_every_endpoint() {
    for lan in Backend::all() {
        let catalog = Catalog::new(vec![16_384u64; 4]);
        let store = Arc::new(MemStore::new(catalog.clone(), 7));
        let fx = start_on(lan, 2, 32, &catalog, store);
        let addrs = fx.front.addrs().to_vec();
        get(addrs[0], "/file/0").unwrap();
        get(addrs[1], "/file/0").unwrap(); // node 1 now holds a replica
        let payload = vec![0x5A; 8_192];
        mw(&fx)
            .handle(NodeId(0))
            .write_block(BlockId::new(FileId(0), 0), &payload)
            .unwrap();
        mw(&fx).quiesce(); // drain the invalidations
        for (n, &addr) in addrs.iter().enumerate() {
            let r = get(addr, "/file/0").unwrap();
            assert_eq!(
                &r.body[..8_192],
                &payload[..],
                "{} node {n} served stale data",
                lan.name()
            );
        }
        fx.shutdown();
    }
}

#[cfg(not(feature = "obs-off"))]
#[test]
fn debug_trace_returns_ring_as_json() {
    for lan in Backend::all() {
        let catalog = Catalog::new(vec![20_000u64; 6]);
        let store = Arc::new(SyntheticStore::new(catalog.clone(), 42));
        let fx = start_on(lan, 2, 64, &catalog, store);
        let addrs = fx.front.addrs().to_vec();
        get(addrs[0], "/file/0").unwrap();
        get(addrs[1], "/file/0").unwrap();

        let r = get(addrs[0], "/debug/trace").unwrap();
        assert_eq!(r.status, 200, "{}", lan.name());
        assert_eq!(r.headers.get("content-type"), Some("application/json"));
        let body = String::from_utf8(r.body).expect("trace dump is UTF-8");
        assert!(body.starts_with("{\"capacity\":"), "got: {body:.80}");
        // The reads above must have left dispatch and serve hops in the
        // ring, and the cross-node read a peer fetch.
        for hop in ["\"dispatch\"", "\"serve\"", "\"peer_fetch\""] {
            assert!(body.contains(hop), "trace dump missing {hop} hop:\n{body}");
        }
        fx.shutdown();
    }
}
