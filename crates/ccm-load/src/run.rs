//! The live driver: replay a recorded request stream against a running
//! cluster with closed-loop clients, verify every byte, and reconcile the
//! report against the runtime's own counters.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::collections::HashMap;

use ccm_core::block::{blocks_of_file, BLOCK_SIZE};
use ccm_core::{AdmissionConfig, BlockId, FileId as CoreFileId, NodeId};
use ccm_obs::{Counter, Histogram, LatencySummary, Registry, Snapshot, Stopwatch};
use ccm_rt::store::{read_file_direct, MemStore};
use ccm_rt::{BlockStore, Catalog, Middleware, RtConfig, SyntheticStore, Transport, WriteMode};
use ccm_traces::{FileId as TraceFileId, WriteMix};

use crate::common::{fnv1a, scrape_ok, Cluster, FNV_OFFSET};
use crate::report::LoadReport;
use crate::spec::LoadSpec;

/// The families a mid-run scrape must find: the driver's and the
/// runtime's counters.
const SCRAPE_FAMILIES: [&str; 2] = ["ccm_load_requests_total", "ccm_rt_reads_total"];

/// What one phase (warm-up or measurement) delivered. Digests are XOR
/// folds over the per-client stream digests, so the value is independent
/// of client interleaving — the concurrent and deterministic modes agree.
#[derive(Clone, Copy)]
struct PhaseOut {
    blocks: u64,
    bytes: u64,
    digest: u64,
}

/// One closed-loop step: time the cluster read, verify it against the
/// backing store's ground truth — with the shadow copy of acked writes
/// spliced over it, since under write-back the store lags the cluster —
/// and fold the payload into the digest.
#[allow(clippy::too_many_arguments)]
fn serve_one(
    mw: &Middleware,
    node: NodeId,
    store: &dyn BlockStore,
    catalog: &Catalog,
    req: TraceFileId,
    shadow: &HashMap<BlockId, Vec<u8>>,
    latency: &Histogram,
    requests: &Counter,
    out: &mut PhaseOut,
) {
    let file = CoreFileId(req.0);
    let sw = Stopwatch::start();
    let got = mw.handle(node).read_file(file);
    sw.stop(latency);
    requests.inc();
    let mut want = read_file_direct(store, catalog, file);
    if !shadow.is_empty() {
        for b in 0..blocks_of_file(want.len() as u64) {
            if let Some(p) = shadow.get(&BlockId::new(file, b)) {
                let off = b as usize * BLOCK_SIZE as usize;
                want[off..off + p.len()].copy_from_slice(p);
            }
        }
    }
    assert!(
        got == want,
        "corrupt serve: file {} returned {} bytes (want {})",
        req.0,
        got.len(),
        want.len()
    );
    out.blocks += blocks_of_file(want.len() as u64) as u64;
    out.bytes += want.len() as u64;
    fnv1a(&mut out.digest, &got);
}

/// Drive one phase of the stream. `phase_start` is the global index of
/// `reqs[0]`, so request `i` always lands on node `i % nodes` no matter
/// how the phase is split across clients: client `k` of `K` serves the
/// phase indices `j ≡ k (mod K)`, and because `K` is a multiple of the
/// node count its node `(phase_start + k) % nodes` is fixed — `K / nodes`
/// closed-loop clients per node, exactly the paper's client model.
#[allow(clippy::too_many_arguments)]
fn drive_phase(
    mw: &Middleware,
    store: &Arc<dyn BlockStore>,
    catalog: &Catalog,
    reqs: &[TraceFileId],
    phase_start: usize,
    nodes: usize,
    clients: usize,
    deterministic: bool,
    mix: Option<WriteMix>,
    shadow: &mut HashMap<BlockId, Vec<u8>>,
    latency: &Histogram,
    requests: &Counter,
    scrape: Option<SocketAddr>,
) -> (PhaseOut, Option<bool>, u64) {
    let empty = HashMap::new();
    let part = |k: usize| {
        let node = NodeId(((phase_start + k) % nodes) as u16);
        let mut out = PhaseOut {
            blocks: 0,
            bytes: 0,
            digest: FNV_OFFSET,
        };
        for j in (k..reqs.len()).step_by(clients) {
            serve_one(
                mw, node, &**store, catalog, reqs[j], &empty, latency, requests, &mut out,
            );
        }
        out
    };

    let fold = |parts: Vec<PhaseOut>| {
        parts.into_iter().fold(
            PhaseOut {
                blocks: 0,
                bytes: 0,
                digest: 0,
            },
            |mut acc, p| {
                acc.blocks += p.blocks;
                acc.bytes += p.bytes;
                acc.digest ^= p.digest;
                acc
            },
        )
    };

    if deterministic {
        // In-order replay, but folded into the same per-client digest
        // slots the concurrent mode uses, so digests match across modes.
        let mut parts = vec![
            PhaseOut {
                blocks: 0,
                bytes: 0,
                digest: FNV_OFFSET,
            };
            clients
        ];
        let mut writes = 0u64;
        for (j, req) in reqs.iter().enumerate() {
            let node = NodeId(((phase_start + j) % nodes) as u16);
            let op = (phase_start + j) as u64;
            if mix.is_some_and(|m| m.is_write(op)) {
                // Rewrite the file's first block with a payload that is a
                // pure function of (seed-derived mix, op) — the shadow map
                // is what every later read is verified against.
                let file = CoreFileId(req.0);
                let block = BlockId::new(file, 0);
                let fill = (op as u8) ^ (req.0 as u8) ^ 0x5A;
                let payload = vec![fill; catalog.block_bytes(block) as usize];
                let sw = Stopwatch::start();
                mw.handle(node)
                    .write_block(block, &payload)
                    .expect("writable overlay refused a write");
                sw.stop(latency);
                requests.inc();
                shadow.insert(block, payload);
                writes += 1;
                continue;
            }
            serve_one(
                mw,
                node,
                &**store,
                catalog,
                *req,
                shadow,
                latency,
                requests,
                &mut parts[j % clients],
            );
        }
        let scraped = scrape.map(|a| scrape_ok(a, &SCRAPE_FAMILIES));
        (fold(parts), scraped, writes)
    } else {
        assert!(mix.is_none(), "write mix requires deterministic mode");
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..clients).map(|k| s.spawn(move || part(k))).collect();
            // Scrape while the clients are in flight: the run report's
            // `metrics_scrape` certifies the exposition is live mid-load.
            let scraped = scrape.map(|a| scrape_ok(a, &SCRAPE_FAMILIES));
            let parts = joins
                .into_iter()
                .map(|j| j.join().expect("load client panicked"))
                .collect();
            (fold(parts), scraped, 0)
        })
    }
}

/// Per-class deltas of `ccm_rt_reads_total` between two registry
/// snapshots, in `[local, remote, disk, fallback]` order.
fn class_deltas(warm: &Snapshot, done: &Snapshot) -> [u64; 4] {
    let d = |class: &str| {
        done.counter_sum_where("ccm_rt_reads_total", "class", class)
            - warm.counter_sum_where("ccm_rt_reads_total", "class", class)
    };
    [d("local"), d("remote"), d("disk"), d("fallback")]
}

/// Run `spec` over the in-process channel LAN.
pub fn run(spec: &LoadSpec) -> LoadReport {
    run_inner(spec, "channel", None)
}

/// Run `spec` over a caller-built transport (e.g. `ccm-net`'s `TcpLan`),
/// labelling the report's `backend` field with `backend`.
pub fn run_on(spec: &LoadSpec, transport: Arc<dyn Transport>, backend: &str) -> LoadReport {
    run_inner(spec, backend, Some(transport))
}

fn run_inner(spec: &LoadSpec, backend: &str, transport: Option<Arc<dyn Transport>>) -> LoadReport {
    assert!(spec.nodes > 0, "empty cluster");
    assert!(spec.clients_per_node > 0, "no clients");
    assert!(spec.measure_requests > 0, "empty measurement window");
    let mix = spec.write_mix();
    assert!(
        mix.is_none() || spec.deterministic,
        "write mix requires deterministic mode"
    );

    let wl = spec.workload();
    let stream = spec.record_stream();
    let catalog = Catalog::new(wl.sizes().to_vec());
    // Write runs need a store that accepts writes; read-only runs keep the
    // pure synthetic store (the overlay reads identically, but why pay for
    // its map).
    let store: Arc<dyn BlockStore> = if mix.is_some() {
        Arc::new(MemStore::new(catalog.clone(), spec.seed))
    } else {
        Arc::new(SyntheticStore::new(catalog.clone(), spec.seed))
    };
    let registry = Registry::new();
    let cfg = RtConfig {
        nodes: spec.nodes,
        capacity_blocks: spec.capacity_blocks,
        policy: spec.policy,
        // Deterministic replay asserts that no fetch ever falls back to
        // the store; on a loaded (or single-core) machine OS scheduling
        // can stall a service thread well past the production timeout,
        // so give sequential replay a timeout only a genuine hang hits.
        fetch_timeout: if spec.deterministic {
            Duration::from_secs(60)
        } else {
            Duration::from_secs(2)
        },
        obs: Some(registry.clone()),
        write: spec.write,
        admission: spec.admission_ghosts.map(AdmissionConfig::new),
        ..RtConfig::default()
    };
    let cluster = Cluster::start(
        cfg,
        catalog.clone(),
        store.clone(),
        transport,
        spec.serve_metrics,
    );
    let mw = cluster.mw();
    let clients = spec.total_clients();

    let phase_latency = |phase: &str| {
        registry.histogram(
            "ccm_load_request_latency_ns",
            "End-to-end file-read latency as the load generator sees it",
            &[("phase", phase)],
        )
    };
    let phase_requests = |phase: &str| {
        registry.counter(
            "ccm_load_requests_total",
            "Requests the load generator completed",
            &[("phase", phase)],
        )
    };

    // Warm-up: populate the caches, then drop the counters on the floor.
    let mut shadow: HashMap<BlockId, Vec<u8>> = HashMap::new();
    let (warm_reqs, measure_reqs) = stream.split_at(spec.warmup_requests);
    drive_phase(
        mw,
        &store,
        &catalog,
        warm_reqs,
        0,
        spec.nodes,
        clients,
        spec.deterministic,
        mix,
        &mut shadow,
        &phase_latency("warmup"),
        &phase_requests("warmup"),
        None,
    );
    mw.quiesce();
    let warm_stats = mw.stats();
    let warm_snap = mw.obs_snapshot();

    // Measurement window.
    let latency = phase_latency("measure");
    let started = Instant::now();
    let (out, scraped, window_writes) = drive_phase(
        mw,
        &store,
        &catalog,
        measure_reqs,
        spec.warmup_requests,
        spec.nodes,
        clients,
        spec.deterministic,
        mix,
        &mut shadow,
        &latency,
        &phase_requests("measure"),
        cluster.scrape_addr(),
    );
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    mw.quiesce();
    mw.check_invariants();
    let measured = mw.stats().delta_since(&warm_stats);
    let done_snap = mw.obs_snapshot();

    // Write epilogue: drain the dirty set, then hold the run to the
    // durability contract — no write may be lost on the graceful path, and
    // every acked payload must now be on the store byte for byte.
    let mut writes_ok = true;
    if mix.is_some() {
        mw.flush_dirty();
        writes_ok &= mw.dirty_blocks() == 0 && mw.lost_writes().is_empty();
        for (block, payload) in &shadow {
            writes_ok &= store.read_block(*block) == *payload;
        }
    }

    // Reconcile the driver's own counts against the protocol stats and
    // the runtime's read-class registry. Every block read ticks exactly
    // one registry class; protocol stats count decisions, so per-class
    // equality is exact precisely when no data-plane fallback raced.
    // `store_fallbacks` also counts fallbacks outside the read path (an
    // eviction forward whose source bytes were already gone); those tick
    // `ccm_rt_move_fallbacks_total`, so the exact identity is
    // read-class fallbacks + move fallbacks == store fallbacks.
    let [local, remote, disk, fallback] = class_deltas(&warm_snap, &done_snap);
    let moves = done_snap.counter_sum("ccm_rt_move_fallbacks_total")
        - warm_snap.counter_sum("ccm_rt_move_fallbacks_total");
    let mut reconciled = local + remote + disk + fallback == out.blocks
        && measured.accesses() == out.blocks
        && fallback + moves == measured.store_fallbacks;
    if measured.store_fallbacks == 0 {
        reconciled &= local == measured.local_hits
            && remote == measured.remote_hits
            && disk == measured.disk_reads;
    }
    if mix.is_some() {
        // Driver writes vs. the protocol counter vs. the runtime's
        // `ccm_rt_writes_total` family — and the durability epilogue.
        let rt_writes = done_snap.counter_sum("ccm_rt_writes_total")
            - warm_snap.counter_sum("ccm_rt_writes_total");
        reconciled &= measured.writes == window_writes && rt_writes == window_writes && writes_ok;
    }
    if spec.deterministic {
        assert_eq!(
            measured.store_fallbacks, 0,
            "deterministic replay must not race the data plane"
        );
        assert!(
            reconciled,
            "deterministic replay failed reconciliation: driver {} blocks, \
             registry {:?}, stats {:?}",
            out.blocks,
            [local, remote, disk, fallback],
            measured
        );
    }

    let adm = mw.admission_stats();
    let write_stats = mw.write_stats();
    let latency = LatencySummary::of(&latency.snapshot());
    let report = LoadReport {
        backend: backend.to_string(),
        preset: wl.name().to_string(),
        policy: spec.policy_label().to_string(),
        nodes: spec.nodes,
        clients_per_node: spec.clients_per_node,
        capacity_blocks: spec.capacity_blocks,
        warmup_requests: spec.warmup_requests,
        measure_requests: spec.measure_requests,
        seed: spec.seed,
        deterministic: spec.deterministic,
        blocks: out.blocks,
        bytes: out.bytes,
        digest: out.digest,
        measured,
        reconciled,
        write_ratio: spec.write_ratio,
        write_mode: match spec.write.mode {
            WriteMode::Through => "through".to_string(),
            WriteMode::Back => "back".to_string(),
        },
        writes: window_writes,
        flushes: write_stats.flushes,
        lost_writes: write_stats.lost,
        admission_ghosts: spec.admission_ghosts,
        admission_admitted: adm.admitted,
        admission_rejected: adm.rejected,
        admission_ghost_hits: adm.ghost_hits,
        metrics_scrape: scraped,
        elapsed_s: elapsed,
        rps: measure_reqs.len() as f64 / elapsed,
        mb_per_s: out.bytes as f64 / (1024.0 * 1024.0) / elapsed,
        latency,
    };
    cluster.shutdown();
    report
}
