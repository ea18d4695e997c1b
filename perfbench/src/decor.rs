//! Transparent decorators around the three layer seams the benchmark can
//! reach from outside: `FrontBackend` (front tier → middleware),
//! `Transport` (middleware → peers) and `BlockStore` (disk service →
//! store). Each forwards every trait method unchanged to the wrapped
//! value; while the shared [`Recorder`] is on, it also opens a span
//! around the call and counts the calls a per-layer ratio needs.

use crate::span::{Kind, Recorder};
use ccm_core::{BlockId, FileId, NodeId};
use ccm_front::{FrontBackend, HitStats};
use ccm_rt::{BlockStore, Catalog, PeerMsg, Transport};
use simcore::chan::Receiver;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Add one to `c` while recording.
fn bump(rec: &Recorder, c: &AtomicU64) {
    if rec.on() {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// `FrontBackend` decorator: one [`Kind::Read`] span per backend read.
pub struct TracedBackend {
    inner: Arc<dyn FrontBackend>,
    rec: Arc<Recorder>,
}

impl TracedBackend {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn FrontBackend>, rec: Arc<Recorder>) -> TracedBackend {
        TracedBackend { inner, rec }
    }
}

impl FrontBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }

    fn read_file(&self, node: NodeId, file: FileId) -> Vec<u8> {
        let _span = self.rec.open(Kind::Read, file.0);
        self.inner.read_file(node, file)
    }

    fn read_range(&self, node: NodeId, file: FileId, start: u64, end: u64) -> Vec<u8> {
        let _span = self.rec.open(Kind::Read, file.0);
        self.inner.read_range(node, file, start, end)
    }

    fn hit_stats(&self) -> HitStats {
        self.inner.hit_stats()
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }
}

/// Transport call counts, taken while recording.
#[derive(Default)]
pub struct NetCounts {
    /// Peer block fetches.
    pub fetches: AtomicU64,
    /// Fetches that came back empty (holder dropped the block, timeout).
    pub fetch_misses: AtomicU64,
    /// `Forward` messages (evicted masters' second chance).
    pub forward: AtomicU64,
    /// `Invalidate` messages.
    pub invalidate: AtomicU64,
    /// `WriteInvalidate` messages (write coherence fan-out).
    pub write_invalidate: AtomicU64,
}

/// `Transport` decorator: [`Kind::Fetch`] spans around block fetches and
/// [`Kind::Send`] spans around data-plane sends.
pub struct TracedLan {
    inner: Arc<dyn Transport>,
    rec: Arc<Recorder>,
    /// Call counts.
    pub counts: NetCounts,
}

impl TracedLan {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Transport>, rec: Arc<Recorder>) -> TracedLan {
        TracedLan {
            inner,
            rec,
            counts: NetCounts::default(),
        }
    }
}

impl Transport for TracedLan {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn send(&self, src: NodeId, dst: NodeId, msg: PeerMsg) -> bool {
        let c = &self.counts;
        let (counter, block) = match &msg {
            PeerMsg::Forward { block, .. } => (Some(&c.forward), Some(block)),
            PeerMsg::Invalidate { block } => (Some(&c.invalidate), Some(block)),
            PeerMsg::WriteInvalidate { block, .. } => (Some(&c.write_invalidate), Some(block)),
            PeerMsg::BlockRequest { block, .. } => (None, Some(block)),
            _ => (None, None),
        };
        if let Some(counter) = counter {
            bump(&self.rec, counter);
        }
        let _span = block.and_then(|b| self.rec.open(Kind::Send, b.file.0));
        self.inner.send(src, dst, msg)
    }

    fn reconnect(&self, node: NodeId) -> Receiver<PeerMsg> {
        self.inner.reconnect(node)
    }

    fn fetch_block(
        &self,
        src: NodeId,
        holder: NodeId,
        block: BlockId,
        timeout: Duration,
    ) -> Option<Arc<[u8]>> {
        bump(&self.rec, &self.counts.fetches);
        let got = {
            let _span = self.rec.open(Kind::Fetch, block.file.0);
            self.inner.fetch_block(src, holder, block, timeout)
        };
        if got.is_none() {
            bump(&self.rec, &self.counts.fetch_misses);
        }
        got
    }

    fn fetch_blocks(
        &self,
        src: NodeId,
        holder: NodeId,
        blocks: &[BlockId],
        timeout: Duration,
    ) -> Vec<Option<Arc<[u8]>>> {
        let got = {
            let _span = blocks
                .first()
                .and_then(|b| self.rec.open(Kind::Fetch, b.file.0));
            self.inner.fetch_blocks(src, holder, blocks, timeout)
        };
        if self.rec.on() {
            let misses = got.iter().filter(|g| g.is_none()).count() as u64;
            let c = &self.counts;
            c.fetches.fetch_add(blocks.len() as u64, Ordering::Relaxed);
            c.fetch_misses.fetch_add(misses, Ordering::Relaxed);
        }
        got
    }

    fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        self.inner.barrier(node, timeout)
    }

    fn ping(&self, src: NodeId, dst: NodeId, timeout: Duration) -> bool {
        self.inner.ping(src, dst, timeout)
    }
}

/// `BlockStore` decorator: [`Kind::StoreRead`] / [`Kind::StoreWrite`]
/// spans around every store call.
pub struct TracedStore {
    inner: Arc<dyn BlockStore>,
    rec: Arc<Recorder>,
}

impl TracedStore {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn BlockStore>, rec: Arc<Recorder>) -> TracedStore {
        TracedStore { inner, rec }
    }
}

impl BlockStore for TracedStore {
    fn read_block(&self, block: BlockId) -> Vec<u8> {
        let _span = self.rec.open(Kind::StoreRead, block.file.0);
        self.inner.read_block(block)
    }

    fn write_block(&self, block: BlockId, data: &[u8]) -> bool {
        let _span = self.rec.open(Kind::StoreWrite, block.file.0);
        self.inner.write_block(block, data)
    }
}
