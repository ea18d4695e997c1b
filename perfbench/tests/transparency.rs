//! The decorators are transparent: a short single-threaded run produces
//! identical middleware and disk statistics with and without them, and
//! every transport method reaches the wrapped `TcpLan`.

use ccm_core::{BlockId, CacheStats, FileId, NodeId, ReplacementPolicy};
use ccm_net::TcpLan;
use ccm_rt::{
    BlockStore, Catalog, DiskConfig, FileStore, Middleware, RtConfig, SyntheticStore, Transport,
    WriteConfig,
};
use perfbench::decor::{TracedLan, TracedStore};
use perfbench::span::Recorder;
use simcore::rng::Rng;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 4;

/// Run the same seeded single-threaded sequence of reads and writes on a
/// fresh cluster, quiescing after every operation so the data plane is a
/// function of the sequence alone. Returns the statistics it ends with.
fn run(decorate: bool, dir: &std::path::Path) -> (String, CacheStats, usize) {
    let catalog = Catalog::new((0..48).map(|i| 1000 + 3000 * (i % 5)).collect::<Vec<u64>>());
    let init = SyntheticStore::new(catalog.clone(), 7);
    let store: Arc<dyn BlockStore> =
        Arc::new(FileStore::create(dir, &catalog, &init).expect("build store"));
    let tcp: Arc<dyn Transport> = Arc::new(TcpLan::loopback(NODES).expect("bind loopback"));
    let rec = Arc::new(Recorder::default());
    rec.set(true);
    let (store, lan): (Arc<dyn BlockStore>, Arc<dyn Transport>) = if decorate {
        (
            Arc::new(TracedStore::new(store, rec.clone())),
            Arc::new(TracedLan::new(tcp, rec.clone())),
        )
    } else {
        (store, tcp)
    };
    let cfg = RtConfig {
        nodes: NODES,
        capacity_blocks: 12,
        policy: ReplacementPolicy::MasterPreserving,
        disk: DiskConfig {
            // Readahead runs behind the caller's back; without it the
            // disk counters are a function of the sequence alone.
            readahead: 0,
            ..DiskConfig::default()
        },
        write: WriteConfig::back_every_ops(4, 7),
        ..RtConfig::default()
    };
    let mw = Middleware::start_on(cfg, catalog.clone(), store, lan.clone());
    let mut rng = Rng::new(42);
    for i in 0..300 {
        let h = mw.handle(NodeId((i % NODES) as u16));
        let file = FileId(rng.next_below(48) as u32);
        if rng.chance(0.2) {
            let block = BlockId::new(file, 0);
            let len = catalog.block_bytes(block) as usize;
            h.write_block(block, &vec![i as u8; len])
                .expect("writable store");
        } else {
            assert_eq!(h.read_file(file).len() as u64, catalog.size_of(file));
        }
        mw.quiesce();
    }
    // Methods the middleware does not call on this path still forward.
    assert!(lan.ping(NodeId(0), NodeId(1), Duration::from_secs(5)));
    assert!(lan.barrier(NodeId(2), Duration::from_secs(5)));
    let fetched = lan.fetch_blocks(
        NodeId(0),
        NodeId(3),
        &[BlockId::new(FileId(0), 0), BlockId::new(FileId(1), 0)],
        Duration::from_secs(5),
    );
    assert_eq!(fetched.len(), 2);
    let disks: Vec<_> = (0..NODES)
        .map(|n| mw.disk_stats(NodeId(n as u16)))
        .collect();
    let cache = mw.stats();
    let stats = format!("{cache:?}\n{:?}\n{disks:?}\n{fetched:?}", mw.write_stats());
    mw.shutdown();
    (stats, cache, rec.drain().len())
}

#[test]
fn decorators_change_no_statistic() {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("transparency");
    let _ = std::fs::remove_dir_all(&base);
    let (plain, cache, no_spans) = run(false, &base.join("plain"));
    let (traced, _, spans) = run(true, &base.join("traced"));
    let _ = std::fs::remove_dir_all(&base);
    // The sequence crosses every seam: peer fetches, forwards, disk reads
    // and writes.
    assert!(cache.remote_hits > 0 && cache.forwards > 0, "{cache:?}");
    assert!(cache.disk_reads > 0 && cache.writes > 0, "{cache:?}");
    assert_eq!(no_spans, 0);
    assert!(spans > 0, "the decorated run recorded spans");
    assert_eq!(plain, traced);
}
