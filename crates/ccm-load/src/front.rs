//! The front-door drive mode: replay a recorded request stream *through
//! the HTTP front tier* against either backend — the live form of the
//! paper's CCM-vs-L2S comparison.
//!
//! Structure mirrors [`run`](crate::run): closed-loop clients striped over
//! a recorded stream, a warm-up/measurement split, byte verification of
//! every response against the backing store, an order-insensitive payload
//! digest, and a reconciliation pass — here against the front tier's own
//! `ccm_front_*` counters and the backend's block-weighted hit
//! accounting. The differences are the tier in between (real HTTP
//! connections, a dispatch policy picking the serving node) and the
//! backend seam (CCM middleware or the live L2S baseline).

use std::sync::Arc;
use std::time::Instant;

use ccm_core::block::blocks_of_file;
use ccm_core::{FileId, ReplacementPolicy};
use ccm_front::client::FrontClient;
use ccm_front::{CcmBackend, FrontBackend, FrontTier, L2sBackend, PolicyKind};
use ccm_obs::{LatencySummary, Registry, Snapshot, Stopwatch};
use ccm_rt::store::read_file_direct;
use ccm_rt::{Catalog, Middleware, RtConfig, SyntheticStore, Transport};
use ccm_traces::{FileId as TraceFileId, Preset};
use simcore::Rng;

use crate::common::{fnv1a, start_middleware, FNV_OFFSET};

/// Which cache architecture serves behind the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// The cooperative caching middleware with the given replacement
    /// policy (paper default: master-preserving).
    Ccm(ReplacementPolicy),
    /// The live L2S baseline: whole-file per-node LRU with
    /// de-replication, no cooperative peer fetch. Capacity parity with
    /// CCM: each node gets `capacity_blocks × 8 KB` of cache.
    L2s,
}

impl BackendChoice {
    /// Report label (`ccm` / `l2s`).
    pub fn label(self) -> &'static str {
        match self {
            BackendChoice::Ccm(_) => "ccm",
            BackendChoice::L2s => "l2s",
        }
    }
}

/// Everything that determines a front-door run.
#[derive(Debug, Clone)]
pub struct FrontSpec {
    /// Which calibrated trace preset to replay.
    pub preset: Preset,
    /// Restrict the preset to its `n` hottest files (`None` = full
    /// catalog).
    pub head_files: Option<usize>,
    /// Cluster size (backend nodes and front endpoints).
    pub nodes: usize,
    /// Closed-loop clients per endpoint (ignored in deterministic mode).
    pub clients_per_node: usize,
    /// Per-node cache capacity in 8 KB blocks (both backends; L2S gets
    /// the byte equivalent).
    pub capacity_blocks: usize,
    /// The front tier's dispatch policy.
    pub dispatch: PolicyKind,
    /// What serves behind the dispatch seam.
    pub backend: BackendChoice,
    /// Requests replayed to warm the caches before measurement.
    pub warmup_requests: usize,
    /// Requests replayed inside the measurement window.
    pub measure_requests: usize,
    /// Seed for the recorded request stream and the synthetic store.
    pub seed: u64,
    /// `Some(k)`: every `k`-th request of the stream (by global index)
    /// asks for only the file's first block (`Range: bytes=0-8191`)
    /// instead of the whole file — the partial-content traffic the block
    /// granularity argument is about. The CCM backend reads only the
    /// covering block; L2S must fault the entire file (whole-file
    /// granularity). Zero-length files are always fetched whole.
    pub range_every: Option<usize>,
    /// Single-threaded in-order replay over keep-alive connections: the
    /// report's deterministic projection becomes a pure function of the
    /// spec, identical across reruns and across channel/TCP transports.
    pub deterministic: bool,
}

impl FrontSpec {
    /// A small default cell: 4 nodes, 8 clients each, 300-file head.
    pub fn new(preset: Preset, dispatch: PolicyKind, backend: BackendChoice) -> FrontSpec {
        FrontSpec {
            preset,
            head_files: Some(300),
            nodes: 4,
            clients_per_node: 8,
            capacity_blocks: 64,
            dispatch,
            backend,
            warmup_requests: 600,
            measure_requests: 1_200,
            seed: 0x10AD,
            range_every: None,
            deterministic: false,
        }
    }

    /// Warm-up plus measurement requests.
    pub fn total_requests(&self) -> usize {
        self.warmup_requests + self.measure_requests
    }

    /// Total client threads in the concurrent mode.
    pub fn total_clients(&self) -> usize {
        self.nodes * self.clients_per_node
    }
}

/// One front-door run's report. Like [`LoadReport`](crate::LoadReport),
/// split into a deterministic projection (spec echo + seed-determined
/// observations; bit-identical across reruns *and across transports* for
/// a deterministic spec) and wall-clock extras.
#[derive(Debug, Clone)]
pub struct FrontReport {
    /// Backend label (`ccm` / `l2s`).
    pub backend: String,
    /// Transport under the CCM backend (`channel` / `tcp`); `-` for L2S.
    /// Deliberately *outside* the deterministic projection.
    pub transport: String,
    /// Workload name, head truncation included.
    pub preset: String,
    /// Dispatch policy label.
    pub dispatch: String,
    /// Replacement policy label (CCM) or `whole-file-lru` (L2S).
    pub cache_policy: String,
    /// Cluster size.
    pub nodes: usize,
    /// Closed-loop clients per endpoint.
    pub clients_per_node: usize,
    /// Per-node capacity in blocks.
    pub capacity_blocks: usize,
    /// Warm-up requests.
    pub warmup_requests: usize,
    /// Measurement-window requests.
    pub measure_requests: usize,
    /// Stream/store seed.
    pub seed: u64,
    /// Whether the run was the single-threaded deterministic replay.
    pub deterministic: bool,

    /// Ranged-request cadence echo (`spec.range_every`).
    pub range_every: Option<usize>,

    /// Requests completed in the window (all verified `200`s/`206`s).
    pub requests: u64,
    /// Blocks the window's responses covered (driver count — what the
    /// block-granular CCM backend reads).
    pub blocks: u64,
    /// Blocks a whole-file-granularity server faults for the same window
    /// (what the L2S backend reads); equals `blocks` without ranges.
    pub faulted: u64,
    /// Payload bytes delivered in the window.
    pub bytes: u64,
    /// Order-insensitive FNV-1a digest of the window's payload.
    pub digest: u64,
    /// Block-weighted cache hits over the window (backend accounting).
    pub hits: u64,
    /// Block-weighted cache accesses over the window.
    pub accesses: u64,
    /// Requests dispatched to a node other than their arrival endpoint.
    pub handoffs: u64,
    /// Driver counts, backend hit accounting, and the front tier's
    /// dispatch/response counters all agreed.
    pub reconciled: bool,

    /// Measurement-window wall time, seconds.
    pub elapsed_s: f64,
    /// Requests per second over the window.
    pub rps: f64,
    /// Payload megabytes per second over the window.
    pub mb_per_s: f64,
    /// Per-request latency over the window (client-observed, HTTP
    /// round-trip included).
    pub latency: LatencySummary,
}

impl FrontReport {
    /// Block-weighted cluster-memory hit ratio over the window.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    fn deterministic_fields(&self) -> String {
        format!(
            concat!(
                "\"backend\": \"{}\", \"preset\": \"{}\", \"dispatch\": \"{}\", ",
                "\"cache_policy\": \"{}\", \"nodes\": {}, \"clients_per_node\": {}, ",
                "\"capacity_blocks\": {}, \"warmup_requests\": {}, \"measure_requests\": {}, ",
                "\"seed\": {}, \"range_every\": {}, \"deterministic\": {}, ",
                "\"requests\": {}, \"blocks\": {}, \"faulted_blocks\": {}, ",
                "\"bytes\": {}, \"digest\": \"{:#018x}\", ",
                "\"hits\": {}, \"accesses\": {}, \"hit_ratio\": {:.6}, ",
                "\"handoffs\": {}, \"reconciled\": {}"
            ),
            self.backend,
            self.preset,
            self.dispatch,
            self.cache_policy,
            self.nodes,
            self.clients_per_node,
            self.capacity_blocks,
            self.warmup_requests,
            self.measure_requests,
            self.seed,
            match self.range_every {
                Some(k) => k.to_string(),
                None => "null".to_string(),
            },
            self.deterministic,
            self.requests,
            self.blocks,
            self.faulted,
            self.bytes,
            self.digest,
            self.hits,
            self.accesses,
            self.hit_ratio(),
            self.handoffs,
            self.reconciled,
        )
    }

    /// The seed-determined projection: bit-identical across reruns of the
    /// same deterministic spec, on either transport (the transport label
    /// is kept out on purpose).
    pub fn deterministic_json(&self) -> String {
        format!("{{ {} }}", self.deterministic_fields())
    }

    /// The full cell: deterministic section plus transport and timing.
    pub fn to_json(&self) -> String {
        format!(
            "{{ {}, \"transport\": \"{}\", \"elapsed_s\": {:.3}, \"rps\": {:.1}, \
             \"mb_per_s\": {:.2}, \"latency_ns\": {} }}",
            self.deterministic_fields(),
            self.transport,
            self.elapsed_s,
            self.rps,
            self.mb_per_s,
            self.latency.to_json(),
        )
    }

    /// One human line for progress output.
    pub fn summary(&self) -> String {
        format!(
            "{:<4} {:<8} {:<18} {:<16} cap {:>4}: {:>7.1} req/s, hit {:>5.1}%, \
             handoffs {:>5}, p50 {:>8} ns",
            self.backend,
            self.transport,
            self.preset,
            self.dispatch,
            self.capacity_blocks,
            self.rps,
            100.0 * self.hit_ratio(),
            self.handoffs,
            self.latency.p50_ns,
        )
    }
}

/// What one phase delivered (XOR-folded per-client digests, as in the
/// bare-middleware driver, so concurrent and deterministic modes agree).
#[derive(Clone, Copy)]
struct PhaseOut {
    requests: u64,
    /// Blocks the responses actually covered (what CCM reads).
    blocks: u64,
    /// Blocks a whole-file-granularity server must fault for the same
    /// responses (what L2S reads) — equals `blocks` when no ranges.
    faulted: u64,
    bytes: u64,
    digest: u64,
}

/// One closed-loop step over HTTP: GET the file (or its first block, for
/// ranged requests) through the front door, verify every byte, fold the
/// payload into the digest.
fn serve_one(
    conn: &mut FrontClient,
    store: &SyntheticStore,
    catalog: &Catalog,
    req: TraceFileId,
    ranged: bool,
    latency: &ccm_obs::Histogram,
    out: &mut PhaseOut,
) {
    let file = FileId(req.0);
    let size = catalog.size_of(file);
    let path = format!("/file/{}", req.0);
    let want = read_file_direct(store, catalog, file);
    let ranged = ranged && size > 0;
    let sw = Stopwatch::start();
    let r = if ranged {
        conn.get_with(&path, &[("Range", "bytes=0-8191")])
            .expect("front request failed")
    } else {
        conn.get(&path).expect("front request failed")
    };
    sw.stop(latency);
    let (expect_status, want): (u16, &[u8]) = if ranged {
        let end = (ccm_core::BLOCK_SIZE as usize).min(want.len());
        (206, &want[..end])
    } else {
        (200, &want)
    };
    assert_eq!(
        r.status, expect_status,
        "front returned {} for {path} (ranged: {ranged})",
        r.status
    );
    assert!(
        r.body == want,
        "corrupt serve through the front door: file {} returned {} bytes (want {})",
        req.0,
        r.body.len(),
        want.len()
    );
    out.requests += 1;
    out.blocks += if ranged {
        1
    } else {
        blocks_of_file(size) as u64
    };
    out.faulted += blocks_of_file(size) as u64;
    out.bytes += want.len() as u64;
    fnv1a(&mut out.digest, &r.body);
}

/// Drive one phase through the front door. Request `i` of the stream
/// arrives at endpoint `i % nodes` (round-robin DNS), exactly the
/// bare-middleware driver's node mapping — what happens *after* arrival
/// is the dispatch policy's business.
#[allow(clippy::too_many_arguments)]
fn drive_phase(
    front: &FrontTier,
    store: &Arc<SyntheticStore>,
    catalog: &Catalog,
    reqs: &[TraceFileId],
    phase_start: usize,
    nodes: usize,
    clients: usize,
    range_every: Option<usize>,
    deterministic: bool,
    latency: &ccm_obs::Histogram,
) -> PhaseOut {
    let addrs = front.addrs();
    let empty = PhaseOut {
        requests: 0,
        blocks: 0,
        faulted: 0,
        bytes: 0,
        digest: 0,
    };
    // Ranged requests are picked by *global* stream index, so the mix is
    // identical no matter how the phase is split across clients.
    let is_ranged = |j: usize| range_every.is_some_and(|k| (phase_start + j).is_multiple_of(k));
    let fold = |parts: Vec<PhaseOut>| {
        parts.into_iter().fold(empty, |mut acc, p| {
            acc.requests += p.requests;
            acc.blocks += p.blocks;
            acc.faulted += p.faulted;
            acc.bytes += p.bytes;
            acc.digest ^= p.digest;
            acc
        })
    };

    if deterministic {
        // In-order replay over per-endpoint keep-alive connections,
        // folded into the same per-client digest slots the concurrent
        // mode uses.
        let mut conns: Vec<FrontClient> = addrs
            .iter()
            .map(|&a| FrontClient::connect(a).expect("connect front endpoint"))
            .collect();
        let mut parts = vec![
            PhaseOut {
                digest: FNV_OFFSET,
                ..empty
            };
            clients
        ];
        for (j, req) in reqs.iter().enumerate() {
            let endpoint = (phase_start + j) % nodes;
            serve_one(
                &mut conns[endpoint],
                store,
                catalog,
                *req,
                is_ranged(j),
                latency,
                &mut parts[j % clients],
            );
        }
        fold(parts)
    } else {
        let part = |k: usize| {
            let endpoint = (phase_start + k) % nodes;
            let mut conn = FrontClient::connect(addrs[endpoint]).expect("connect front endpoint");
            let mut out = PhaseOut {
                digest: FNV_OFFSET,
                ..empty
            };
            for j in (k..reqs.len()).step_by(clients) {
                serve_one(
                    &mut conn,
                    store,
                    catalog,
                    reqs[j],
                    is_ranged(j),
                    latency,
                    &mut out,
                );
            }
            out
        };
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..clients).map(|k| s.spawn(move || part(k))).collect();
            let parts = joins
                .into_iter()
                .map(|j| j.join().expect("front load client panicked"))
                .collect();
            fold(parts)
        })
    }
}

fn counter_delta(warm: &Snapshot, done: &Snapshot, name: &str) -> u64 {
    done.counter_sum(name) - warm.counter_sum(name)
}

/// Run `spec` with the CCM backend on the in-process channel LAN (or the
/// L2S backend, which has no transport at all).
pub fn run_front(spec: &FrontSpec) -> FrontReport {
    run_front_inner(spec, "channel", None)
}

/// Run `spec` with the CCM backend over a caller-built transport (e.g.
/// `ccm-net`'s `TcpLan`), labelling the report's `transport` field.
///
/// # Panics
/// Panics if `spec.backend` is [`BackendChoice::L2s`] — there is no
/// cluster transport underneath the L2S baseline.
pub fn run_front_on(spec: &FrontSpec, transport: Arc<dyn Transport>, label: &str) -> FrontReport {
    assert!(
        matches!(spec.backend, BackendChoice::Ccm(_)),
        "the L2S backend has no cluster transport"
    );
    run_front_inner(spec, label, Some(transport))
}

fn run_front_inner(
    spec: &FrontSpec,
    transport_label: &str,
    transport: Option<Arc<dyn Transport>>,
) -> FrontReport {
    assert!(spec.nodes > 0, "empty cluster");
    assert!(spec.clients_per_node > 0, "no clients");
    assert!(spec.measure_requests > 0, "empty measurement window");

    let wl = {
        let full = spec.preset.workload();
        match spec.head_files {
            Some(n) => full.head(n),
            None => full,
        }
    };
    let stream = wl.record(spec.total_requests(), &mut Rng::new(spec.seed).substream(1));
    let catalog = Catalog::new(wl.sizes().to_vec());
    let store = Arc::new(SyntheticStore::new(catalog.clone(), spec.seed));
    let registry = Registry::new();

    // Build the backend behind the dispatch seam.
    let (backend, middleware, cache_policy): (
        Arc<dyn FrontBackend>,
        Option<Arc<Middleware>>,
        &'static str,
    ) = match spec.backend {
        BackendChoice::Ccm(policy) => {
            let cfg = RtConfig {
                nodes: spec.nodes,
                capacity_blocks: spec.capacity_blocks,
                policy,
                // Same rationale as `run.rs`: deterministic replay must
                // never see a timeout-induced store fallback just because
                // a loaded machine stalled a service thread.
                fetch_timeout: if spec.deterministic {
                    std::time::Duration::from_secs(60)
                } else {
                    std::time::Duration::from_secs(2)
                },
                obs: Some(registry.clone()),
                ..RtConfig::default()
            };
            let mw = Arc::new(start_middleware(
                cfg,
                catalog.clone(),
                store.clone(),
                transport,
            ));
            (
                Arc::new(CcmBackend::new(mw.clone())),
                Some(mw),
                policy.label(),
            )
        }
        BackendChoice::L2s => {
            let capacity_bytes = spec.capacity_blocks as u64 * ccm_core::BLOCK_SIZE;
            (
                Arc::new(L2sBackend::new(
                    catalog.clone(),
                    store.clone(),
                    spec.nodes,
                    capacity_bytes,
                )),
                None,
                "whole-file-lru",
            )
        }
    };
    let dispatch = spec.dispatch.build(&registry, spec.nodes);
    let front = FrontTier::start(backend.clone(), dispatch, registry.clone());
    let clients = spec.total_clients();

    let phase_latency = |phase: &str| {
        registry.histogram(
            "ccm_load_request_latency_ns",
            "End-to-end request latency as the load generator sees it",
            &[("phase", phase)],
        )
    };

    // Warm-up.
    let (warm_reqs, measure_reqs) = stream.split_at(spec.warmup_requests);
    drive_phase(
        &front,
        &store,
        &catalog,
        warm_reqs,
        0,
        spec.nodes,
        clients,
        spec.range_every,
        spec.deterministic,
        &phase_latency("warmup"),
    );
    backend.quiesce();
    let warm_hits = backend.hit_stats();
    let warm_snap = registry.snapshot();

    // Measurement window.
    let latency = phase_latency("measure");
    let started = Instant::now();
    let out = drive_phase(
        &front,
        &store,
        &catalog,
        measure_reqs,
        spec.warmup_requests,
        spec.nodes,
        clients,
        spec.range_every,
        spec.deterministic,
        &latency,
    );
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    backend.quiesce();
    let done_hits = backend.hit_stats();
    let done_snap = registry.snapshot();

    let hits = done_hits.hits - warm_hits.hits;
    let accesses = done_hits.accesses - warm_hits.accesses;
    let dispatched = counter_delta(&warm_snap, &done_snap, "ccm_front_dispatch_total");
    let ok_responses = ["2xx", "206"]
        .iter()
        .map(|class| {
            done_snap.counter_sum_where("ccm_front_responses_total", "status", class)
                - warm_snap.counter_sum_where("ccm_front_responses_total", "status", class)
        })
        .sum::<u64>();
    let handoffs = counter_delta(&warm_snap, &done_snap, "ccm_front_handoffs_total");

    // Reconcile: the front tier must have dispatched and answered exactly
    // the window's requests, and the backend's block-weighted access count
    // must match the driver's own block arithmetic — covering blocks for
    // the block-granular CCM backend, whole-file blocks for L2S. (Under
    // concurrent CCM load a raced peer fetch can fall through to the
    // store — accesses then still match, the hit side just lands in the
    // disk class.)
    let expected_accesses = match spec.backend {
        BackendChoice::Ccm(_) => out.blocks,
        BackendChoice::L2s => out.faulted,
    };
    let reconciled =
        dispatched == out.requests && ok_responses == out.requests && accesses == expected_accesses;
    if spec.deterministic {
        assert!(
            reconciled,
            "deterministic front replay failed reconciliation: driver {} requests / {} covering \
             blocks / {} faulted blocks, front dispatched {dispatched}, answered {ok_responses}, \
             backend accesses {accesses}",
            out.requests, out.blocks, out.faulted,
        );
    }

    let latency = LatencySummary::of(&latency.snapshot());
    let report = FrontReport {
        backend: backend.name().to_string(),
        transport: match spec.backend {
            BackendChoice::Ccm(_) => transport_label.to_string(),
            BackendChoice::L2s => "-".to_string(),
        },
        preset: wl.name().to_string(),
        dispatch: spec.dispatch.name().to_string(),
        cache_policy: cache_policy.to_string(),
        nodes: spec.nodes,
        clients_per_node: spec.clients_per_node,
        capacity_blocks: spec.capacity_blocks,
        warmup_requests: spec.warmup_requests,
        measure_requests: spec.measure_requests,
        seed: spec.seed,
        range_every: spec.range_every,
        deterministic: spec.deterministic,
        requests: out.requests,
        blocks: out.blocks,
        faulted: out.faulted,
        bytes: out.bytes,
        digest: out.digest,
        hits,
        accesses,
        handoffs,
        reconciled,
        elapsed_s: elapsed,
        rps: measure_reqs.len() as f64 / elapsed,
        mb_per_s: out.bytes as f64 / (1024.0 * 1024.0) / elapsed,
        latency,
    };

    front.shutdown();
    drop(backend);
    if let Some(mw) = middleware {
        match Arc::try_unwrap(mw) {
            Ok(mw) => mw.shutdown(),
            Err(_) => { /* a handle outlived us; Drop will clean up */ }
        }
    }
    report
}
