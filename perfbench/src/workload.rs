//! The three workloads: their catalogs, cluster sizing, fixed rates and
//! limits, and the seeded request streams the cluster is driven with.

use ccm_cluster::CostModel;
use ccm_core::{BlockId, FileId, BLOCK_SIZE};
use ccm_rt::{Catalog, DiskConfig, DiskMechanics, WriteConfig};
use ccm_traces::{Preset, Workload};
use simcore::rng::Rng;
use std::time::Duration;

/// Cluster size for every workload.
pub const NODES: usize = 4;
/// Requests in a run's stream pool; phases draw from it in order and wrap.
pub const POOL: usize = 1 << 18;
/// The seed whose stream digest every run re-derives and checks against
/// the pinned table, whatever seed it was given.
pub const CANARY_SEED: u64 = 0;

/// Emulated disk physics: the disk service sleeps these instead of
/// waiting on a device, so disk timings are emulated, not measured.
pub const MECHANICS: DiskMechanics = DiskMechanics {
    seek: Duration::from_micros(1000),
    read_latency: Duration::from_micros(250),
};

/// Emulated cost of one remote block hit, ms: the paper's Table 1 price of
/// a peer fetch (a control message out, the peer serving the block, the
/// block back over the wire, installing it in the cache), from
/// `ccm_cluster::CostModel`. `miss_ms_per_req` charges it per remote hit,
/// beside the disk service's emulated time per disk read.
pub fn remote_fetch_ms() -> f64 {
    let c = CostModel::default();
    let message = |bytes| c.nic_time(bytes) + c.net_latency();
    (message(c.control_msg_bytes)
        + c.peer_block_time()
        + message(BLOCK_SIZE)
        + c.cache_block_time())
    .as_millis_f64()
}

/// Emulated disk time, ms, for `seeks` seeks and `physical` block reads.
pub fn disk_ms(seeks: f64, physical: f64) -> f64 {
    seeks * MECHANICS.seek.as_secs_f64() * 1e3
        + physical * MECHANICS.read_latency.as_secs_f64() * 1e3
}

/// The share of the full preset's traffic that a workload's kept catalog
/// covers.
#[derive(Debug, Clone, Copy)]
pub struct Coverage {
    /// Share of the preset's requests that go to kept files.
    pub requests: f64,
    /// Share of the preset's requested bytes that go to kept files.
    pub bytes: f64,
}

/// Everything fixed about one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Whether requests go through the HTTP front tier (else straight to
    /// node handles).
    pub http: bool,
    /// Its name on the command line.
    pub name: &'static str,
    /// File-size popularity model the catalog and stream come from.
    pub model: Workload,
    /// How much of the full preset's traffic that model keeps.
    pub kept: Coverage,
    /// Per-node cache capacity, blocks.
    pub capacity_blocks: usize,
    /// Share of requests that are range GETs (on multi-block files).
    pub range_share: f64,
    /// Share of operations that are block writes.
    pub write_share: f64,
    /// Write path configuration.
    pub write: WriteConfig,
    /// Open-loop rate of the nominal latency phase, requests/s.
    pub nominal_rps: f64,
    /// Length of one measurement round, s: a run repeats its phases in
    /// rounds of about this length.
    pub round_s: f64,
    /// Offered rates of the SLO ladder, ascending, requests/s.
    pub ladder: &'static [f64],
    /// Latency limit on the ladder's tail percentile, ms.
    pub p99_limit_ms: f64,
    /// Whether warm-up first reads the whole catalog once (for catalogs
    /// about the size of cluster memory).
    pub warm_pass: bool,
    /// Warm-up requests drawn from the stream.
    pub warmup: usize,
}

/// Largest unsent backlog a ladder rung may end with, as a share of its
/// scheduled requests, on top of one request per generator thread (each
/// may legitimately be mid-request when the window closes).
pub const BACKLOG_LIMIT: f64 = 0.01;

/// Most generator lateness the nominal phase may show at its tail, ms;
/// beyond it the run measures the generator, not the cluster, and fails.
pub const LATE_LIMIT_MS: f64 = 10.0;

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let (hot_model, hot_kept) = small_files(Preset::Calgary, 32 * 1024, 3200);
        Some(match name {
            "remote-hot" => Spec {
                http: true,
                name: "remote-hot",
                model: hot_model,
                kept: hot_kept,
                capacity_blocks: 1000,
                range_share: 0.0,
                write_share: 0.0,
                write: WriteConfig::through(),
                nominal_rps: 1500.0,
                round_s: 5.0,
                ladder: &[2000.0, 3000.0, 4000.0, 5000.0],
                p99_limit_ms: 20.0,
                warm_pass: true,
                warmup: 4000,
            },
            "disk-bound" => {
                let (model, kept) = small_files(Preset::Rutgers, 64 * 1024, 5120);
                Spec {
                    http: true,
                    name: "disk-bound",
                    model,
                    kept,
                    capacity_blocks: 128,
                    range_share: 0.2,
                    write_share: 0.0,
                    write: WriteConfig::through(),
                    nominal_rps: 300.0,
                    round_s: 10.0,
                    ladder: &[400.0, 700.0, 1000.0, 1300.0],
                    p99_limit_ms: 40.0,
                    warm_pass: false,
                    warmup: 2000,
                }
            }
            "write-back" => Spec {
                http: false,
                name: "write-back",
                model: hot_model,
                kept: hot_kept,
                capacity_blocks: 1000,
                range_share: 0.0,
                write_share: 0.2,
                write: WriteConfig::back_every_ops(256, 512),
                nominal_rps: 1000.0,
                round_s: 5.0,
                ladder: &[2000.0, 3000.0, 4000.0, 5000.0],
                p99_limit_ms: 20.0,
                warm_pass: true,
                warmup: 4000,
            },
            _ => return None,
        })
    }

    /// The catalog served.
    pub fn catalog(&self) -> Catalog {
        Catalog::new(self.model.sizes().to_vec())
    }

    /// Disk service configuration (the runtime's default scheduler,
    /// coalescing and readahead, with emulated mechanics).
    pub fn disk(&self) -> DiskConfig {
        DiskConfig {
            mechanics: Some(MECHANICS),
            ..DiskConfig::default()
        }
    }

    /// One line on the catalog against cluster memory: its size, the share
    /// of the full preset's requests and requested bytes it keeps, and the
    /// share of requests that go to the hottest files filling 80% of the
    /// cluster's combined cache.
    pub fn describe(&self) -> String {
        let memory = (self.capacity_blocks * NODES) as u64;
        let (mut blocks, mut hot_share) = (0, 0.0);
        for (rank, &size) in self.model.sizes().iter().enumerate() {
            blocks += size.div_ceil(BLOCK_SIZE);
            if blocks * 10 <= memory * 8 {
                hot_share += self.model.popularity(ccm_traces::FileId(rank as u32));
            }
        }
        format!(
            "catalog files={} blocks={blocks} cluster-memory={memory} blocks; \
             keeps {:.1}% of the {} preset's requests and {:.1}% of its requested bytes; \
             hottest files filling 80% of memory take {:.1}% of requests",
            self.model.num_files(),
            self.kept.requests * 100.0,
            self.model.name(),
            self.kept.bytes * 100.0,
            hot_share * 100.0
        )
    }
}

/// The hottest files of `preset` no larger than `max_size`, taken in rank
/// order until they hold `blocks` blocks, with their relative popularity
/// kept (so the stream stays Zipf over the survivors), and the share of
/// the full preset's traffic they cover.
fn small_files(preset: Preset, max_size: u64, blocks: u64) -> (Workload, Coverage) {
    let full = preset.workload();
    let (mut sizes, mut weights, mut total) = (Vec::new(), Vec::new(), 0);
    let (mut all_bytes, mut kept_bytes) = (0.0, 0.0);
    for (rank, &size) in full.sizes().iter().enumerate() {
        let weight = full.popularity(ccm_traces::FileId(rank as u32));
        all_bytes += weight * size as f64;
        if size <= max_size && total < blocks {
            sizes.push(size);
            weights.push(weight);
            kept_bytes += weight * size as f64;
            total += size.div_ceil(BLOCK_SIZE);
        }
    }
    let kept = Coverage {
        requests: weights.iter().sum::<f64>()
            / (0..full.num_files())
                .map(|f| full.popularity(ccm_traces::FileId(f as u32)))
                .sum::<f64>(),
        bytes: kept_bytes / all_bytes,
    };
    (Workload::new(preset.name(), sizes, &weights), kept)
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read a whole file.
    Get(FileId),
    /// Read bytes `start..=end` of a file.
    Range(FileId, u64, u64),
    /// Overwrite one block.
    Write(BlockId),
}

impl Op {
    /// The file the request touches.
    pub fn file(&self) -> FileId {
        match *self {
            Op::Get(f) | Op::Range(f, ..) => f,
            Op::Write(b) => b.file,
        }
    }

    /// Block accesses the request makes through the cache (writes make
    /// none: they are not counted as accesses).
    pub fn blocks(&self, catalog: &Catalog) -> u64 {
        match *self {
            Op::Get(f) => catalog.blocks_of(f) as u64,
            Op::Range(_, s, e) => e / BLOCK_SIZE - s / BLOCK_SIZE + 1,
            Op::Write(_) => 0,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, file, a, b) = match *self {
            Op::Get(f) => (0u8, f.0, 0, 0),
            Op::Range(f, s, e) => (1, f.0, s, e),
            Op::Write(b) => (2, b.file.0, b.index as u64, 0),
        };
        out.push(tag);
        out.extend_from_slice(&file.to_le_bytes());
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
}

/// The request stream for `seed`: [`POOL`] requests drawn by popularity.
pub fn stream(spec: &Spec, seed: u64) -> Vec<Op> {
    let catalog = spec.catalog();
    let mut rng = Rng::new(seed).substream(0x5eed);
    (0..POOL)
        .map(|_| {
            let file = FileId(spec.model.sample(&mut rng).0);
            let size = catalog.size_of(file);
            let blocks = catalog.blocks_of(file);
            if spec.write_share > 0.0 && rng.chance(spec.write_share) {
                // Writes carry an 8-byte version stamp, so they target
                // blocks of at least 16 bytes.
                let index = rng.next_below(blocks as u64) as u32;
                let block = BlockId::new(file, index);
                let index = if catalog.block_bytes(block) >= 16 {
                    index
                } else {
                    0
                };
                Op::Write(BlockId::new(file, index))
            } else if blocks > 1 && spec.range_share > 0.0 && rng.chance(spec.range_share) {
                let start = rng.next_below(size);
                let len = 1 + rng.next_below(3 * BLOCK_SIZE);
                Op::Range(file, start, (start + len - 1).min(size - 1))
            } else {
                Op::Get(file)
            }
        })
        .collect()
}

/// Digest of a request stream.
pub fn stream_digest(ops: &[Op]) -> u64 {
    let mut bytes = Vec::with_capacity(ops.len() * 21);
    for op in ops {
        op.encode(&mut bytes);
    }
    crate::stats::digest(&bytes)
}
