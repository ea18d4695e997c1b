//! A real web cluster: HTTP servers on the cooperative caching middleware.
//!
//! Starts 4 HTTP endpoints (one per middleware node, each serving what
//! arrives at it — `Local` dispatch) over a synthetic document store,
//! drives keep-alive load round-robin across them — the role round-robin
//! DNS plays in the paper — and reports the cache cooperation that
//! happened underneath the sockets.
//!
//! Run with: `cargo run --release --example http_cluster`

use coopcache::core::{FileId, ReplacementPolicy};
use coopcache::front::{CcmBackend, FrontClient, FrontTier, Local};
use coopcache::rt::{Catalog, Middleware, RtConfig, SyntheticStore};
use coopcache::simcore::Rng;
use std::sync::Arc;

fn main() {
    // 300 documents, 2-64 KB.
    let mut rng = Rng::new(7);
    let sizes: Vec<u64> = (0..300).map(|_| rng.next_range(2_048, 65_536)).collect();
    let catalog = Catalog::new(sizes);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 3));

    let mw = Arc::new(Middleware::start(
        RtConfig {
            nodes: 4,
            capacity_blocks: 512, // 4 MB per node
            policy: ReplacementPolicy::MasterPreserving,
            ..RtConfig::default()
        },
        catalog.clone(),
        store,
    ));
    let front = FrontTier::start(
        Arc::new(CcmBackend::new(mw.clone())),
        Arc::new(Local),
        mw.registry().clone(),
    );
    println!("HTTP cluster up:");
    for (n, addr) in front.addrs().iter().enumerate() {
        println!("  node {n}: http://{addr}/file/<id>");
    }

    // 16 keep-alive clients, spread round-robin over the endpoints, each
    // checking every body's length against the catalog.
    let started = std::time::Instant::now();
    let (ok, failed) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..16u64)
            .map(|t| {
                let addr = front.addrs()[t as usize % front.addrs().len()];
                let catalog = &catalog;
                s.spawn(move || {
                    let mut rng = Rng::new(t);
                    let mut conn = FrontClient::connect(addr).expect("connect");
                    let (mut ok, mut failed) = (0u64, 0u64);
                    for _ in 0..250 {
                        let id = rng.next_below(300) as u32;
                        match conn.get(&format!("/file/{id}")) {
                            Ok(r)
                                if r.status == 200
                                    && r.body.len() as u64 == catalog.size_of(FileId(id)) =>
                            {
                                ok += 1
                            }
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
    let secs = started.elapsed().as_secs_f64();

    println!(
        "\n{} requests over 16 keep-alive connections in {secs:.2}s ({:.0} req/s), {failed} failed",
        ok + failed,
        (ok + failed) as f64 / secs,
    );
    let s = mw.stats();
    println!("\nunderneath the sockets:");
    println!(
        "  {} block accesses: {:.1}% local, {:.1}% peer, {:.1}% disk",
        s.accesses(),
        100.0 * s.local_hit_rate(),
        100.0 * s.remote_hit_rate(),
        100.0 * s.miss_rate()
    );
    println!("  {} masters forwarded between nodes", s.forwards);
    mw.check_invariants();
    front.shutdown();
    Arc::try_unwrap(mw).ok().expect("sole owner").shutdown();
    println!("\nclean shutdown");
}
